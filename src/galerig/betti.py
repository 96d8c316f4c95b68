"""Bigraded Betti numbers of odd-gon Gale diagrams and the quasitoric
support test.

For an n-polytope with m = n+3 facets the whole table is determined by its
first row: beta^{-1,2j} counts length-k windows of the weight vector summing
to j, the extreme corners are 1, and the remaining row follows by the duality
beta^{-i,2j} = beta^{-(m-n)+i,2(m-j)}.  betti_table returns the table as a
plain dict {(i, 2j): beta} of its nonzero entries, in sorted key order.

The table also gives the h-vector: sum (-1)^i beta^{-i,2j} t^j is the
numerator of the Hilbert series of the Stanley-Reisner ring over
(1 - t)^m, and that series is h(t) / (1 - t)^n, so the numerator is
h(t) (1 - t)^3 (h_vector).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Sequence

from .gale import GaleDiagram, _validated_weights


def window_sums(weights: Sequence[int]) -> tuple[int, ...]:
    """Cyclic sums of k consecutive weights, k = (len-1)//2, one per start."""
    w = _validated_weights(weights)
    nv = len(w)
    k = (nv - 1) // 2
    return tuple(sum(w[(i + t) % nv] for t in range(k)) for i in range(nv))


def beta_first_row(diagram: GaleDiagram) -> dict[int, int]:
    """beta^{-1,2j} as a map j -> count of length-k windows summing to j."""
    counts = Counter(window_sums(diagram.weights))
    return dict(sorted(counts.items()))


def betti_table(diagram: GaleDiagram) -> dict[tuple[int, int], int]:
    m, n = diagram.m, diagram.n
    entries = {(0, 0): 1, (m - n, 2 * m): 1}
    first = beta_first_row(diagram)
    for j, b in first.items():
        entries[(1, 2 * j)] = b
    for j, b in first.items():
        entries[(2, 2 * (m - j))] = b
    return dict(sorted(entries.items()))


def h_vector(diagram: GaleDiagram) -> tuple[int, ...]:
    """h_0..h_n of the polytope, from h(t) = sum (-1)^i beta^{-i,2j} t^j /
    (1 - t)^3.  The division is three running sums of the numerator's
    coefficients up to degree m; it is exact iff those above degree n are
    zero (a remainder would leave a nonzero quadratic in the degree there),
    and a ValueError is raised otherwise."""
    coeffs = [0] * (diagram.m + 1)
    for (i, twoj), b in betti_table(diagram).items():
        coeffs[twoj // 2] += (-1) ** i * b
    for _ in range(3):
        coeffs = list(accumulate(coeffs))
    if any(coeffs[diagram.n + 1:]):
        raise ValueError(f"the Betti numerator is not divisible by (1 - t)^3: "
                         f"coefficients {coeffs[diagram.n + 1:]} above degree {diagram.n}")
    return tuple(coeffs[:diagram.n + 1])


def supports_quasitoric(k: int) -> bool:
    """Whether a polytope from a (2k+1)-gon diagram supports a quasitoric
    manifold: exactly when k <= 3."""
    if k < 2:
        raise ValueError("odd-gon diagrams need k >= 2")
    return k <= 3
