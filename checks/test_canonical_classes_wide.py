"""Wide check of the report's path that never lists a member's matrices:
the characteristic matrices up to the permutations of same-label leading
facets (galerig.charmat.canonical_charmats) and their orbits under the
automorphisms of the polytope (galerig.charmat.orbit_sizes).  For every
canonical pentagon of total <= 14 and heptagon of total <= 12 (236 + 72
diagrams, 55,824 matrices), the multiplicities sum to the enumeration's
length and the orbit sizes are those of the oracle closure
(tests/oracles.py).  For every multi-member pentagon Tor class of total
<= 14 (67 classes), classify on those orbits gives the record built from
the full lists and the oracle union-find over every matrix.  Tier-1 runs
the same on the diagrams and classes of test_cohomology's key_range.

Runtime: about 12 s on a 2-core x86 VM under Python 3.11, pytest's
start-up included.

Run from the repository root:  python3 -m pytest checks/test_canonical_classes_wide.py
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.betti import betti_group  # noqa: E402
from galerig.charmat import canonical_charmats, enumerate_charmats, orbit_sizes  # noqa: E402
from galerig.cli import _classes, _matrices, classify  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402

DIAGRAMS = oracles.canonical_diagrams(5, 14) + oracles.canonical_diagrams(7, 12)
CLASSES = sorted({members for members in map(betti_group, oracles.canonical_diagrams(5, 14))
                  if len(members) > 1})


def test_range():
    assert len(DIAGRAMS) == 236 + 72
    assert sum(len(enumerate_charmats(face_structure(GaleDiagram(w)))) for w in DIAGRAMS) == 55824
    assert len(CLASSES) == 67


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_canonical_multiplicities_and_orbit_sizes(weights):
    fs = face_structure(GaleDiagram(weights))
    blocks = enumerate_charmats(fs)
    canonical = canonical_charmats(fs)
    assert sum(canonical.values()) == len(blocks)
    sizes = orbit_sizes(fs, canonical)
    assert Counter(sizes.values()) == \
        Counter(map(len, oracles.polytope_symmetry_orbits(fs, blocks)))


@pytest.mark.parametrize("members", CLASSES, ids=lambda c: " ".join(",".join(map(str, w))
                                                                    for w in c))
def test_classify_equals_the_record_from_full_lists(members):
    matrices = {w: _matrices(GaleDiagram(w)) for w in members}
    assert classify({w: _classes(GaleDiagram(w)) for w in members}) == \
        oracles.class_record_by_lists(matrices)
