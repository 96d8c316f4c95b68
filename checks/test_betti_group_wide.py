"""Wide check of galerig.betti.betti_group, which solves one arrangement of
the window sums per rotation and reflection class.  On every canonical
pentagon of total <= 20 (1,672 diagrams) it equals the paper's
Petersen-graph Tor class (tests/oracles.tor_class).  On the pentagons of
total <= 16 and on every canonical heptagon of total <= 14 (281 diagrams)
it equals the composition search: every composition of the total into
2k + 1 positive parts, grouped by its sorted window sums and
canonicalised.  Its multi-member pentagon classes number 25, 59 and 127
at totals 14, 17 and 20, the counts of ROADMAP.md's sweep rows.

Runtime: about 2 s on a 2-core x86 VM under Python 3.11.

Run from the repository root:  python3 -m pytest checks/test_betti_group_wide.py
"""

import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.betti import betti_group  # noqa: E402
from galerig.gale import canonical_weights  # noqa: E402

PENTAGONS = oracles.canonical_diagrams(5, 20)
HEPTAGONS = oracles.canonical_diagrams(7, 14)


def _groups_by_search(total: int, parts: int) -> dict[tuple[int, ...], tuple]:
    """Each canonical diagram of the total -> every canonical diagram of
    the total with its sorted window sums."""
    groups = defaultdict(set)
    for w in oracles.compositions(total, parts):
        groups[oracles.adjacent_sum_multiset(w)].add(canonical_weights(w))
    return {w: tuple(sorted(members)) for members in groups.values() for w in members}


def test_range():
    assert len(PENTAGONS) == 1672
    assert len(HEPTAGONS) == 281


def test_pentagons_equal_the_petersen_tor_class():
    for w in PENTAGONS:
        assert betti_group(w) == oracles.tor_class(w), w


@pytest.mark.parametrize("parts, max_total", [(5, 16), (7, 14)])
def test_equals_the_composition_search(parts, max_total):
    checked = 0
    for total in range(parts, max_total + 1):
        for w, members in _groups_by_search(total, parts).items():
            assert betti_group(w) == members, w
            checked += 1
    assert checked == len(oracles.canonical_diagrams(parts, max_total))


@pytest.mark.parametrize("total, classes", [(14, 25), (17, 59), (20, 127)])
def test_multi_member_class_counts(total, classes):
    groups = {betti_group(w) for w in PENTAGONS if sum(w) == total}
    assert sum(len(members) > 1 for members in groups) == classes
