"""Classification of pentagon weight vectors up to Tor-algebra isomorphism
via labelled 5-cycles of the Petersen graph.

Vertices 0..4 are the outer pentagon carrying the input weights (a,b,c,d,e);
vertices 5..9 are the inner pentagram carrying the derived labels
(c+d-a, d+e-b, e+a-c, a+b-d, b+c-e), with vertex 5+i the spoke partner of i.
Reading any 5-cycle yields a weight vector with the same adjacent-sum
multiset, and every such vector arises this way.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .gale import canonical_weights

# outer 5-cycle, spokes i -- 5+i, inner pentagram (5+i) -- (5+(i+2) mod 5)
ADJACENCY: tuple[tuple[int, ...], ...] = (
    (1, 4, 5),
    (0, 2, 6),
    (1, 3, 7),
    (2, 4, 8),
    (0, 3, 9),
    (0, 7, 8),
    (1, 8, 9),
    (2, 5, 9),
    (3, 5, 6),
    (4, 6, 7),
)


def _pentagon_weights(weights: Sequence[int]) -> tuple[int, ...]:
    w = tuple(weights)
    if len(w) != 5:
        raise ValueError(f"expected 5 weights, got {len(w)}")
    return w


def petersen_labels(weights: Sequence[int]) -> tuple[int, ...]:
    """All 10 vertex labels: the input on the outer cycle, the derived
    differences on the inner one.  Inner labels may be zero or negative."""
    a, b, c, d, e = _pentagon_weights(weights)
    return (a, b, c, d, e, c + d - a, d + e - b, e + a - c, a + b - d, b + c - e)


@lru_cache(maxsize=None)
def five_cycles() -> tuple[tuple[int, ...], ...]:
    """The 12 undirected 5-cycles of the Petersen graph.

    Each cycle is a vertex tuple starting at its smallest vertex, read in the
    direction that makes the second entry smaller than the last.
    """
    cycles = []

    def extend(path: list[int]):
        last = path[-1]
        if len(path) == 5:
            if path[0] in ADJACENCY[last] and path[1] < path[-1]:
                cycles.append(tuple(path))
            return
        for nb in ADJACENCY[last]:
            if nb > path[0] and nb not in path:
                extend(path + [nb])

    for start in range(10):
        extend([start])
    return tuple(sorted(cycles))


def tor_class(weights: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All canonical pentagon weight vectors with the same Tor-algebra,
    sorted lexicographically.  Always contains the canonical input.

    A cycle reading with some label < 1 is skipped: a diagram must place at
    least one facet over every polygon vertex.
    """
    w = _pentagon_weights(weights)
    if any(a < 1 for a in w):
        raise ValueError(f"weights must be positive, got {w}")
    labels = petersen_labels(w)
    readings = (tuple(labels[v] for v in cyc) for cyc in five_cycles())
    return tuple(sorted({canonical_weights(seq) for seq in readings if min(seq) >= 1}))
