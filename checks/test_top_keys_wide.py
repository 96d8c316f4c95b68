"""Wide check of the keys that report and iso compare against saturated
quotients.  For every member of a multi-member pentagon Tor class of total
<= 13 and every canonical heptagon of total <= 12 (95 + 72 diagrams),
galerig.cli._matrix_keys, which reads one socle functional per orbit
under the polytope's automorphisms (galerig.charmat.orbits) off the top
degree of the ideal alone and checks it against the h-vector of the
Betti table, gives every matrix the key of its orbit representative's
saturated quotient (galerig.cohomology's
quotient_presentation, keyed on oracles.socle_functional by
tests/oracles.quotient_keys).  Saturating every representative is too slow
for tier-1, so this sits outside tier-1's testpaths.

Runtime: about 22 s on a 2-core x86 VM under Python 3.11, most of it in
saturating the representatives' ideals at total 13.

Run from the repository root:  python3 -m pytest checks/test_top_keys_wide.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.betti import betti_group, h_vector  # noqa: E402
from galerig.charmat import enumerate_charmats, orbits  # noqa: E402
from galerig.cli import _matrix_keys  # noqa: E402
from galerig.cohomology import quotient_presentation  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

CLASSES = {betti_group(w) for w in oracles.canonical_diagrams(5, 13)}
DIAGRAMS = (sorted(w for members in CLASSES if len(members) > 1 for w in members)
            + oracles.canonical_diagrams(7, 12))


def test_range():
    assert len(DIAGRAMS) == 95 + 72


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_top_keys_are_the_saturated_keys(weights):
    diagram = GaleDiagram(weights)
    fs = face_structure(diagram)
    blocks = enumerate_charmats(fs)
    representatives = orbits(fs, blocks)
    distinct = sorted(set(representatives))
    saturated = oracles.quotient_keys([quotient_presentation(fs, blocks[r]) for r in distinct])
    key = dict(zip(distinct, saturated))
    assert _matrix_keys(fs, blocks, h_vector(diagram)) == [key[r] for r in representatives]
