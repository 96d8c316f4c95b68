"""Wide check of the face structure and the search plan against the scans
they replaced (tests/oracles.py).  For all 5,306 weight vectors of 5, 7 or
9 weights in 1..4 with total <= 14, rotations and reflections included,
the face structure whose vertex complements are read off the label groups
and whose trailing facets are the last labelled k, 2k and 2k+1 equals
the one that tests every facet triple and scans every vertex, and the
search plan kept with a count of closed pairs per facet equals the plan
that rescans every pair at every step.  Tier-1 checks the canonical
diagrams of total <= 12 (tests/test_gale.py, tests/test_charmat.py).

Runtime: about 7 s on a 2-core x86 VM under Python 3.11.

Run from the repository root:  python3 -m pytest checks/test_face_paths_wide.py
"""

import sys
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.charmat import _search_plan  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

DIAGRAMS = [w for parts in (5, 7, 9) for w in product(range(1, 5), repeat=parts) if sum(w) <= 14]


def test_range():
    assert len(DIAGRAMS) == 5306


@pytest.mark.parametrize("parts", [5, 7, 9])
def test_face_structure_and_plan_match_the_scans(parts):
    for weights in DIAGRAMS:
        if len(weights) != parts:
            continue
        diagram = GaleDiagram(weights)
        fs = face_structure(diagram)
        assert fs == oracles.face_structure_by_scan(diagram), weights
        assert _search_plan(fs) == oracles.search_plan_by_rescan(fs), weights
