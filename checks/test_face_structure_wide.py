"""Wide check of the face structure against the brute-force oracles.  For
every canonical pentagon and heptagon of total <= 12 (100 + 72 diagrams),
the minimal non-faces are the inclusion-minimal facet sets that
tests/oracles.is_face rejects, each a sorted tuple, and the vertex
complements are exactly the facet triples whose complement is_face
accepts.  These are the asserts of tests/test_gale.py's
test_minimal_nonfaces_match_brute_force, which stops at total 9; the
oracle scans all 2^m facet subsets, too slow for tier-1, so this sits
outside tier-1's testpaths.

Runtime: about 8 s on a 2-core x86 VM under Python 3.11, most of it in
the subset scans of the diagrams with m = 12.

Run from the repository root:  python3 -m pytest checks/test_face_structure_wide.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

DIAGRAMS = oracles.canonical_diagrams(5, 12) + oracles.canonical_diagrams(7, 12)


def test_range():
    assert len(DIAGRAMS) == 172


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_face_structure_matches_brute_force(weights):
    diagram = GaleDiagram(weights)
    fs = face_structure(diagram)
    assert {oracles.one_based(s) for s in fs.minimal_nonfaces} == \
        oracles.brute_force_minimal_nonfaces(diagram)
    assert all(list(s) == sorted(s) for s in fs.minimal_nonfaces)
    assert fs.vertex_complements == oracles.brute_force_vertex_complements(diagram)
