"""Wide agreement checks of the codim/ord profiles.

For every matrix of every canonical pentagon of total <= 9 and heptagon of
total <= 11 (54 diagrams, 632 matrices), the profile that the profile
command prints, read off the top functional by contraction
(galerig.cohomology.invariant_profile), equals codim and order on the
saturated quotient, the path that certifies report --verify's
discrepancies, and the coset-coordinate oracles of tests/oracles.py, cell
for cell, and the top functional equals the socle functional of the
saturated quotient (oracles.socle_functional).

For every matrix of every canonical pentagon of total <= 11 and heptagon
of total <= 12 (134 diagrams, 4,176 matrices), the profile by contraction
equals oracles.profile_by_products, the same invariants by multiplication
with the linear forms on the bitwise catalecticants.  This path needs no
saturation.

Saturating and profiling every quotient three ways is too slow for
tier-1, so this sits outside tier-1's testpaths.  Runtime: about 3 s for
the first range and 6 s for the second on a 2-core x86 VM under Python
3.11.

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
    top_functionals,
)
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

DIAGRAMS = oracles.canonical_diagrams(5, 9) + oracles.canonical_diagrams(7, 11)
PRODUCT_DIAGRAMS = oracles.canonical_diagrams(5, 11) + oracles.canonical_diagrams(7, 12)


def _matrix_count(diagrams):
    return sum(len(enumerate_charmats(face_structure(GaleDiagram(w)))) for w in diagrams)


def test_range():
    assert len(DIAGRAMS) == 54
    assert _matrix_count(DIAGRAMS) == 632
    assert len(PRODUCT_DIAGRAMS) == 134
    assert _matrix_count(PRODUCT_DIAGRAMS) == 4176


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_profile_paths_agree(weights):
    diagram = GaleDiagram(weights)
    fs, h = face_structure(diagram), h_vector(diagram)
    blocks = enumerate_charmats(fs)
    for block, phi in zip(blocks, top_functionals(fs, blocks, h)):
        q = quotient_presentation(fs, block)
        assert phi == oracles.socle_functional(q), block
        prof = invariant_profile(phi, h)
        assert prof["codim"] == [codim(g, q) for g in LINEAR_FORMS], block
        assert prof["codim"] == [oracles.codim_on_cosets(g, q) for g in LINEAR_FORMS], block
        assert prof["ord"] == [order(g, q) for g in LINEAR_FORMS], block
        assert prof["ord"] == [oracles.order_via_quotient_maps(g, q) for g in LINEAR_FORMS], block


@pytest.mark.parametrize("weights", PRODUCT_DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_profile_by_contraction_equals_profile_by_products(weights):
    diagram = GaleDiagram(weights)
    fs, h = face_structure(diagram), h_vector(diagram)
    blocks = enumerate_charmats(fs)
    for block, phi in zip(blocks, top_functionals(fs, blocks, h)):
        assert invariant_profile(phi, h) == oracles.profile_by_products(phi, fs.n), block
