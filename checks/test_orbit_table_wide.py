"""Wide check of the stacked GL(3, 2) orbit tables.  For every n = 2..17,
the orbit read off the stacked table of n (galerig.cohomology._orbit
past its chained fills) equals the closure from a frontier under the two
generators (tests/oracles.py) on seeded random functionals and on the
extreme ones, and the table's ints take no more memory, by
sys.getsizeof, than the _orbit_table docstring states for the next n it
names: 0.08 MB at n = 6, 0.3 MB at n = 9, 0.52 MB at n = 11 and 2.5 MB at
n = 17.  The tables of n >= 12 take up to 0.2 s each to build, so this
sits outside tier-1's testpaths.

Runtime: about 2.5 s on a 2-core x86 VM under Python 3.11.

Run from the repository root:  python3 -m pytest checks/test_orbit_table_wide.py
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import galerig.cohomology  # noqa: E402
from galerig.cohomology import _orbit, _orbit_table  # noqa: E402
from galerig.gf2 import monomial_count  # noqa: E402

STATED_MB = {6: 0.08, 9: 0.3, 11: 0.52, 17: 2.5}


def _table_bytes(n: int) -> int:
    """sys.getsizeof over the distinct objects of the table's tuples."""
    sizes = {}
    for table in _orbit_table(n)[0]:
        sizes[id(table)] = sys.getsizeof(table)
        for entry in table:
            sizes[id(entry)] = sys.getsizeof(entry)
    return sum(sizes.values())


@pytest.mark.parametrize("n", range(2, 18))
def test_stacked_orbit_is_the_generator_closure(n, monkeypatch):
    width = monomial_count(3, n)
    monkeypatch.setattr(galerig.cohomology, "_chained_fills", {n: width})
    rng = random.Random(n)
    for phi in [1, 1 << (width - 1), (1 << width) - 1] + [rng.getrandbits(width)
                                                         for _ in range(5)]:
        assert _orbit(phi, n) == oracles.orbit_by_closure(phi, n), phi
    assert galerig.cohomology._chained_fills == {n: width}  # every fill was stacked
    assert _table_bytes(n) <= STATED_MB[min(m for m in STATED_MB if m >= n)] * 1e6
