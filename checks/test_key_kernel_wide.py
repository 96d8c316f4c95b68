"""Wide check of the three table-driven kernels behind every key.  For every
facet-symmetry orbit representative of each member of a multi-member
pentagon Tor class of total <= 13 and of each canonical heptagon of total
<= 12 (95 + 72 diagrams, 2,270 representatives), the elimination of the
top-degree products inside cohomology.top_functional equals the
pivot-scanning elimination of tests/oracles.py on the same rows, the
catalecticants of phi built by contraction tables equal the bit-by-bit
ones in every degree 0..n, and the orbit filled along the word tree equals
the closure from a frontier under the two generators.  Too many diagrams
for tier-1, so this sits outside tier-1's testpaths.

Runtime: about 11 s on a 2-core x86 VM under Python 3.11; no diagram takes
more than 0.2 s.

Run from the repository root:  python3 -m pytest checks/test_key_kernel_wide.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import galerig.cohomology  # noqa: E402
from galerig.betti import h_vector  # noqa: E402
from galerig.charmat import enumerate_charmats, orbits  # noqa: E402
from galerig.cohomology import _catalecticants, _orbit, top_functional  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402
from galerig.petersen import tor_class  # noqa: E402

CLASSES = {tuple(sorted(tor_class(w))) for w in oracles.canonical_diagrams(5, 13)}
DIAGRAMS = (sorted(w for members in CLASSES if len(members) > 1 for w in members)
            + oracles.canonical_diagrams(7, 12))


def test_range():
    assert len(DIAGRAMS) == 95 + 72


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_key_kernels_agree_with_oracles(weights, monkeypatch):
    eliminations = []
    echelon = galerig.cohomology.echelon

    def checked_echelon(rows):
        rows = list(rows)
        result = echelon(rows)
        assert result == oracles.echelon_by_scan(rows)
        eliminations.append(len(rows))
        return result

    monkeypatch.setattr(galerig.cohomology, "echelon", checked_echelon)
    diagram = GaleDiagram(weights)
    fs, h = face_structure(diagram), h_vector(diagram)
    blocks = enumerate_charmats(fs)
    distinct = sorted(set(orbits(fs, blocks)))
    n = fs.n
    for r in distinct:
        phi = top_functional(fs, blocks[r], h)
        assert _catalecticants(phi, n, n) == [oracles.catalecticant_by_bits(phi, n, d)
                                              for d in range(n + 1)]
        assert _orbit(phi, n) == oracles.orbit_by_closure(phi, n)
    # one elimination per representative, each over the products spanning I_n
    assert len(eliminations) == len(distinct) and all(eliminations)
