"""Bigraded Betti numbers of odd-gon Gale diagrams and the quasitoric
support test.

For an n-polytope with m = n+3 facets the whole table is determined by its
first row: beta^{-1,2j} counts length-k windows of the weight vector summing
to j, the extreme corners are 1, and the remaining row follows by the duality
beta^{-i,2j} = beta^{-(m-n)+i,2(m-j)}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .gale import GaleDiagram, _validated_weights


def window_sums(weights: Sequence[int]) -> tuple[int, ...]:
    """Cyclic sums of k consecutive weights, k = (len-1)//2, one per start."""
    w = _validated_weights(weights)
    nv = len(w)
    k = (nv - 1) // 2
    return tuple(sum(w[(i + t) % nv] for t in range(k)) for i in range(nv))


@dataclass
class BettiTable:
    """Sparse table of bigraded Betti numbers beta^{-i,2j}, keyed (i, 2j)."""

    entries: dict = field(default_factory=dict)

    def get(self, i: int, twoj: int) -> int:
        return self.entries.get((i, twoj), 0)

    def items(self):
        return sorted(self.entries.items())

    def to_json(self) -> dict:
        return {"entries": [{"i": i, "2j": twoj, "beta": b}
                            for (i, twoj), b in self.items()]}


def beta_first_row(diagram: GaleDiagram) -> dict[int, int]:
    """beta^{-1,2j} as a map j -> count of length-k windows summing to j."""
    counts = Counter(window_sums(diagram.weights))
    return dict(sorted(counts.items()))


def betti_table(diagram: GaleDiagram) -> BettiTable:
    m, n = diagram.m, diagram.n
    entries = {(0, 0): 1, (m - n, 2 * m): 1}
    first = beta_first_row(diagram)
    for j, b in first.items():
        entries[(1, 2 * j)] = b
    for j, b in first.items():
        entries[(2, 2 * (m - j))] = b
    return BettiTable(entries)


def supports_quasitoric(k: int) -> bool:
    """Whether a polytope from a (2k+1)-gon diagram supports a quasitoric
    manifold: exactly when k <= 3."""
    if k < 2:
        raise ValueError("odd-gon diagrams need k >= 2")
    return k <= 3
