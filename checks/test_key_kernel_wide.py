"""Wide check of the three table-driven kernels behind every key.  For every
orbit representative (galerig.charmat.orbits) of each member of a
multi-member pentagon Tor class of total <= 13 and of each canonical
heptagon of total <= 12 (95 + 72 diagrams, 1,978 representatives, 2,270
under the same-label permutations alone), the forward pass of
elimination over the top-degree products that cohomology.top_functional
hands to gf2.hyperplane_functional keeps one row per highest bit and spans
what the pivot-scanning elimination of tests/oracles.py spans on the same
rows, phi read off that pass equals phi read off the oracle's reduced
echelon rows, the catalecticants of phi sliced off the stacked
catalecticant tables equal the bit-by-bit ones in every degree 0..n, and
the orbit filled along the word tree equals the closure from a frontier
under the two generators.  Too many diagrams
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
import galerig.gf2  # noqa: E402
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
    reader, forward = galerig.cohomology.hyperplane_functional, galerig.gf2._forward

    def checked_forward(rows, width):
        rows = list(rows)
        basis = forward(rows, width)
        # entry b holds the one row whose highest bit is column b - 1, or 0
        assert len(basis) == width + 1 and not basis[0]
        assert all(row.bit_length() == top for top, row in enumerate(basis) if row)
        assert (oracles.echelon_by_scan([row for row in basis if row])
                == oracles.echelon_by_scan(rows))
        eliminations.append(len(rows))
        return basis

    def checked_reader(rows, width):
        # the forward pass the reader runs is the checked one, and only there
        with monkeypatch.context() as patch:
            patch.setattr(galerig.gf2, "_forward", checked_forward)
            return reader(rows, width)

    monkeypatch.setattr(galerig.cohomology, "hyperplane_functional", checked_reader)
    diagram = GaleDiagram(weights)
    fs, h = face_structure(diagram), h_vector(diagram)
    blocks = enumerate_charmats(fs)
    distinct = sorted(set(orbits(fs, blocks)))
    n = fs.n
    for r in distinct:
        phi = top_functional(fs, blocks[r], h)
        assert phi == oracles.top_functional_by_echelon(fs, blocks[r])
        assert _catalecticants(phi, n, n) == [oracles.catalecticant_by_bits(phi, n, d)
                                              for d in range(n + 1)]
        orbit = _orbit(phi, n)
        assert len(orbit) == 168 and set(orbit) == oracles.orbit_by_closure(phi, n)
    # one elimination per representative, each over the products spanning I_n
    assert len(eliminations) == len(distinct) and all(eliminations)
