"""Wide check of the stacked catalecticant tables.  For every n = 2..17 and
both halves of the degrees, d = 0..n // 2 (the key check reads it) and
d = n // 2 + 1..n (the profile reads it too), the pairings sliced off one
lookup of phi per half (galerig.cohomology._catalecticants) equal the
bit-by-bit ones of tests/oracles.py in every degree, on seeded random
functionals and on the extreme ones, and each half's ints take no more
memory, by sys.getsizeof, than the _catalecticant_tables docstring states
for the next n it names: 0.06, 0.75 and 9.4 MB at n = 6, 11 and 17 for
the lower half, and 0.05, 0.76 and 9.6 MB for the upper.  The tables of
n >= 12 exceed any n the commands accept, so this sits outside tier-1's
testpaths.

Runtime: about 2 s on a 2-core x86 VM under Python 3.11.

Run from the repository root:  python3 -m pytest checks/test_catalecticant_table_wide.py
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.cohomology import _catalecticant_tables, _catalecticants  # noqa: E402
from galerig.gf2 import monomial_count  # noqa: E402

STATED_MB = {False: {6: 0.06, 11: 0.75, 17: 9.4}, True: {6: 0.05, 11: 0.76, 17: 9.6}}


def _table_bytes(n: int, upper: bool) -> int:
    """sys.getsizeof over the distinct objects of the table's tuples."""
    sizes = {}
    for table in _catalecticant_tables(n, upper)[0]:
        sizes[id(table)] = sys.getsizeof(table)
        for entry in table:
            sizes[id(entry)] = sys.getsizeof(entry)
    return sum(sizes.values())


@pytest.mark.parametrize("n", range(2, 18))
def test_stacked_catalecticants_are_the_bitwise_pairings(n):
    width = monomial_count(n)
    rng = random.Random(n)
    try:
        for phi in [1, 1 << (width - 1), (1 << width) - 1] + [rng.getrandbits(width)
                                                             for _ in range(3)]:
            assert _catalecticants(phi, n, n) == \
                [oracles.catalecticant_by_bits(phi, n, d) for d in range(n + 1)], phi
        for upper, stated in STATED_MB.items():
            assert _table_bytes(n, upper) <= stated[min(m for m in stated if m >= n)] * 1e6
    finally:
        _catalecticant_tables.cache_clear()  # keep one n's tables alive at a time
