"""Bigraded Betti numbers of odd-gon Gale diagrams, the diagrams that
share them (betti_group) and the quasitoric support test.

For an n-polytope with m = n+3 facets the whole table is determined by its
first row: beta^{-1,2j} counts length-k windows of the weight vector summing
to j, the extreme corners are 1, and the remaining row follows by the duality
beta^{-i,2j} = beta^{-(m-n)+i,2(m-j)}.  betti_table returns the table as a
plain dict {(i, 2j): beta} of its nonzero entries, in sorted key order.

The table also gives the h-vector: sum (-1)^i beta^{-i,2j} t^j is the
numerator of the Hilbert series of the Stanley-Reisner ring over
(1 - t)^m, and that series is h(t) / (1 - t)^n, so the numerator is
h(t) (1 - t)^3 (h_vector, which reads it off the window sums).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, permutations
from typing import Sequence

from .gale import GaleDiagram, _validated_weights, canonical_weights


def window_sums(weights: Sequence[int]) -> tuple[int, ...]:
    """Cyclic sums of k consecutive weights, k = (len-1)//2, one per start."""
    w = _validated_weights(weights)
    nv = len(w)
    k = (nv - 1) // 2
    return tuple(sum(w[(i + t) % nv] for t in range(k)) for i in range(nv))


def betti_group(weights: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Every canonical diagram with the total and the sorted window sums of
    weights, which fix its Betti table, sorted lexicographically; it
    contains the canonical input.  For a pentagon this is its Tor class.

    Each arrangement s of the window sums has one solution a (s_i the sum
    of a_i..a_(i+k-1)): a_(i+k) - a_i = s_(i+1) - s_i walks once round the
    (2k+1)-gon, as gcd(k, 2k+1) = 1, and the total T = sum(s) / k fixes
    the one free unknown.  Solved, a_i = T - s_(i+1) - s_(i+k+1), the
    other 2k weights being two windows; only its positivity is checked.
    Rotating or reflecting s does the same to a, so s_0 is held at the
    least sum and one of (s_0, s_1, ..., s_2k), (s_0, s_2k, ..., s_1) is
    solved."""
    sums = window_sums(weights)
    nv, k = len(sums), len(sums) // 2
    total = sum(sums) // k
    first, *rest = sorted(sums)
    found = set()
    for tail in set(permutations(rest)):
        if tail <= tail[::-1]:
            s = (first,) + tail
            a = tuple([total - s[i - 2 * k] - s[i - k] for i in range(nv)])
            if min(a) >= 1:
                found.add(canonical_weights(a))
    return tuple(sorted(found))


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
    (1 - t)^3.  The table's entries, one per window sum w of the weights
    at beta^{-1,2w} and at beta^{-2,2(m-w)}, and the corners, make the
    numerator 1 - sum_w t^w + sum_w t^(m-w) - t^m, read off the window
    sums without building the table.  The division is three running sums
    of its coefficients up to degree m; it is exact iff those above degree
    n are zero (a remainder would leave a nonzero quadratic in the degree
    there), and a ValueError is raised otherwise."""
    m, n = diagram.m, diagram.n
    coeffs = [1] + [0] * (m - 1) + [-1]
    for w in window_sums(diagram.weights):
        coeffs[w] -= 1
        coeffs[m - w] += 1
    for _ in range(3):
        coeffs = list(accumulate(coeffs))
    if any(coeffs[n + 1:]):
        raise ValueError(f"the Betti numerator is not divisible by (1 - t)^3: "
                         f"coefficients {coeffs[n + 1:]} above degree {n}")
    return tuple(coeffs[:n + 1])


def supports_quasitoric(k: int) -> bool:
    """Whether a polytope from a (2k+1)-gon diagram supports a quasitoric
    manifold: exactly when k <= 3."""
    if k < 2:
        raise ValueError("odd-gon diagrams need k >= 2")
    return k <= 3
