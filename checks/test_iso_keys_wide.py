"""Wide agreement check of the isomorphism keys: for the self-comparison of
every canonical pentagon of total <= 9 (20 diagrams, 19,972 quotient pairs),
the key matrix equals the 168-substitution search of tests/oracles.py, the
keys equal the 168-substitution scan of oracles.scan_iso_key, and each
quotient's ideal is the inverse system of its socle functional.  Too
slow for tier-1 (the search takes seconds per diagram at total 9), so it
sits outside tier-1's testpaths.

Run from the repository root:  python3 -m pytest checks/test_iso_keys_wide.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.charmat import enumerate_charmats  # noqa: E402
from galerig.cohomology import iso_keys, quotient_presentation  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402
from galerig.gf2 import lowest_pivot_rows, monomial_count  # noqa: E402

DIAGRAMS = oracles.canonical_diagrams(5, 9)


def test_range():
    assert len(DIAGRAMS) == 20


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_keys_agree_with_search(weights):
    fs = face_structure(GaleDiagram(weights))
    quotients = [quotient_presentation(fs, b) for b in enumerate_charmats(fs)]
    expected = [[w is not None for w in row]
                for row in oracles.search_iso_witnesses(quotients, quotients)]
    keys = iso_keys(fs.n, quotients[0].hilbert, [oracles.socle_functional(q) for q in quotients])
    assert [[a == b for b in keys] for a in keys] == expected
    assert keys == [oracles.scan_iso_key(q) for q in quotients]
    for q in quotients:
        phi = oracles.socle_functional(q)
        for d in range(q.n + 1):
            assert oracles.annihilator(phi, q.n, d) == lowest_pivot_rows(q.ideal.rows(d),
                                                                         monomial_count(d))
