"""Wide agreement check of the codim/ord profiles.  For every matrix of every
canonical pentagon of total <= 9 and heptagon of total <= 11 (54 diagrams,
632 matrices), the profile that the profile command prints, read off the
top functional (galerig.cohomology.invariant_profile), equals codim and
order on the saturated quotient, the path that certifies report --verify's
discrepancies, and the coset-coordinate oracles of tests/oracles.py, cell
for cell.  Saturating and profiling every quotient three ways is too slow
for tier-1, so this sits outside tier-1's testpaths.

Run from the repository root:  python3 -m pytest checks/test_profile_paths_wide.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.betti import h_vector  # noqa: E402
from galerig.charmat import enumerate_charmats  # noqa: E402
from galerig.cohomology import (  # noqa: E402
    LINEAR_FORMS,
    codim,
    invariant_profile,
    order,
    quotient_presentation,
    socle_functional,
    top_functional,
)
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

DIAGRAMS = oracles.canonical_diagrams(5, 9) + oracles.canonical_diagrams(7, 11)


def test_range():
    assert len(DIAGRAMS) == 54
    total = sum(len(enumerate_charmats(face_structure(GaleDiagram(w)))) for w in DIAGRAMS)
    assert total == 632


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_profile_paths_agree(weights):
    diagram = GaleDiagram(weights)
    fs, h = face_structure(diagram), h_vector(diagram)
    for block in enumerate_charmats(fs):
        q = quotient_presentation(fs, block)
        phi = top_functional(fs, block, h)
        assert phi == socle_functional(q), block
        prof = invariant_profile(phi, fs.n)
        assert prof["codim"] == [codim(g, q) for g in LINEAR_FORMS], block
        assert prof["codim"] == [oracles.codim_on_cosets(g, q) for g in LINEAR_FORMS], block
        assert prof["ord"] == [order(g, q) for g in LINEAR_FORMS], block
        assert prof["ord"] == [oracles.order_via_quotient_maps(g, q) for g in LINEAR_FORMS], block
