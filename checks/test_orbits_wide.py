"""Wide check of the orbits that report and iso key one quotient per, under
the automorphisms of the polytope: the same-label facet permutations and
the weight-preserving rotations and reflections of the polygon.  For every
canonical pentagon and heptagon of total <= 12 (100 + 72 diagrams),
charmat.orbits partitions the enumeration into the orbits the oracle
closes under every same-label transposition and every label automorphism
it finds by a scan (tests/oracles.py): their sizes sum to the matrix
count, each representative is its orbit's first member in column order,
every same-label transposition maps each orbit into itself, every
quotient of an orbit has one isomorphism key, and the keys that iso and
report compare, one top functional per orbit and no quotient
(galerig.cli._matrix_keys), are the per-matrix keys.  Full per-matrix keys
are the oracle, so every quotient is built: too slow for tier-1, so it
sits outside tier-1's testpaths.

Runtime: about 36 s on a 2-core x86 VM under Python 3.11, most of it in
building every quotient; (8,1,1,1,1), with 513 matrices in 10 orbits, is
the slowest diagram at about 1.7 s.

Run from the repository root:  python3 -m pytest checks/test_orbits_wide.py
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.betti import h_vector  # noqa: E402
from galerig.charmat import enumerate_charmats, orbits  # noqa: E402
from galerig.cli import _matrix_keys  # noqa: E402
from galerig.cohomology import quotient_presentation  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

DIAGRAMS = oracles.canonical_diagrams(5, 12) + oracles.canonical_diagrams(7, 12)


def test_range():
    assert len(DIAGRAMS) == 172


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_orbit_keys_agree_with_per_matrix_keys(weights):
    fs = face_structure(GaleDiagram(weights))
    blocks = enumerate_charmats(fs)
    representatives = orbits(fs, blocks)
    sizes = Counter(representatives)
    assert sum(sizes.values()) == len(blocks)

    parts: dict[int, set[int]] = {}
    for i, r in enumerate(representatives):
        parts.setdefault(r, set()).add(i)
    assert all(r == min(part) for r, part in parts.items())
    index = {forms: i for i, forms in enumerate(blocks)}
    for i, forms in enumerate(blocks):
        for image in oracles.same_label_images(fs, forms):
            assert representatives[index[image]] == representatives[i]
    assert set(map(frozenset, parts.values())) == oracles.polytope_symmetry_orbits(fs, blocks)

    quotients = [quotient_presentation(fs, b) for b in blocks]
    keys = oracles.quotient_keys(quotients)
    assert all(keys[i] == keys[r] for i, r in enumerate(representatives))
    assert _matrix_keys(fs, blocks, h_vector(GaleDiagram(weights))) == keys
