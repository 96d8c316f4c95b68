"""Wide check of the three table-driven kernels behind every key.  For every
orbit representative (galerig.charmat.orbits) of each member of a
multi-member pentagon Tor class of total <= 13 and of each canonical
heptagon of total <= 12 (95 + 72 diagrams, 1,978 representatives, 2,270
under the same-label permutations alone), keyed by one
cohomology.top_functionals call per diagram: every forward pass of
elimination over I_n's row blocks, from nothing or continued from a
prefix's state, keeps one row per highest bit and spans what the
pivot-scanning elimination of tests/oracles.py spans on the start's rows
and the new ones; one last pass per representative is read off
(gf2.hyperplane_functional), and the passes meet no more rows than one
elimination per representative would; phi equals the one-matrix oracle's
(oracles.top_functional) and phi read off the oracle's reduced echelon
rows; the catalecticants of phi sliced off the stacked catalecticant
tables equal the bit-by-bit ones in every degree 0..n // 2 and the ranks
read off the same tables and mirrored (cohomology._ranks) the bitwise
ones in every degree 0..n; and the orbit filled along the word tree
equals the closure from a frontier under the two generators.  Too many
diagrams for tier-1, so this sits outside tier-1's testpaths.

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
from galerig.betti import betti_group, h_vector  # noqa: E402
from galerig.charmat import enumerate_charmats, orbits  # noqa: E402
from galerig.charmat import VARIABLES  # noqa: E402
from galerig.cohomology import _nonface_rows, _orbit, _ranks, top_functionals  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

CLASSES = {betti_group(w) for w in oracles.canonical_diagrams(5, 13)}
DIAGRAMS = (sorted(w for members in CLASSES if len(members) > 1 for w in members)
            + oracles.canonical_diagrams(7, 12))


def test_range():
    assert len(DIAGRAMS) == 95 + 72


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_key_kernels_agree_with_oracles(weights, monkeypatch):
    rows_met, readouts = [], []
    reader, forward = galerig.gf2.hyperplane_functional, galerig.gf2._forward

    def checked_forward(rows, width, start=None):
        rows = list(rows)
        basis = forward(rows, width, start)
        # entry b holds the one row whose highest bit is column b - 1, or 0
        assert len(basis) == width + 1 and not basis[0]
        assert all(row.bit_length() == top for top, row in enumerate(basis) if row)
        assert (oracles.echelon_by_scan([row for row in basis if row])
                == oracles.echelon_by_scan([row for row in start or () if row] + rows))
        rows_met.append(len(rows))
        return basis

    def checked_reader(rows, width, start=None):
        readouts.append(width)
        return reader(rows, width, start)

    # the kernel's prefix passes, and the last pass the reader runs
    monkeypatch.setattr(galerig.cohomology, "_forward", checked_forward)
    monkeypatch.setattr(galerig.gf2, "_forward", checked_forward)
    monkeypatch.setattr(galerig.cohomology, "hyperplane_functional", checked_reader)
    diagram = GaleDiagram(weights)
    fs, h = face_structure(diagram), h_vector(diagram)
    blocks = enumerate_charmats(fs)
    distinct = sorted(set(orbits(fs, blocks)))
    n = fs.n
    phis = top_functionals(fs, [blocks[r] for r in distinct], h)
    assert len(readouts) == len(distinct)
    # the rows of one elimination per representative, as the oracle runs
    rows = sum(len(_nonface_rows(n, tuple(sorted((tuple(blocks[r]) + VARIABLES)[i]
                                                 for i in nonface))))
               for r in distinct for nonface in fs.minimal_nonfaces)
    assert all(rows_met) and sum(rows_met) <= rows
    monkeypatch.undo()
    for r, phi in zip(distinct, phis):
        assert phi == oracles.top_functional(fs, blocks[r], h)
        assert phi == oracles.top_functional_by_echelon(fs, blocks[r])
        assert oracles.catalecticants_by_table(phi, n) == \
            [oracles.catalecticant_by_bits(phi, n, d) for d in range(n // 2 + 1)]
        assert _ranks(phi, n) == oracles.catalecticant_ranks_by_bits(phi, n)
        orbit = _orbit(phi, n)
        assert len(orbit) == 168 and set(orbit) == oracles.orbit_by_closure(phi, n)
