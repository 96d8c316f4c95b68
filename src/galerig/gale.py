"""Gale diagrams on regular odd polygons and the face structure of the
corresponding simple polytopes.

A weight vector [a_1, ..., a_{2k+1}] places a_i facets over vertex i of a
regular (2k+1)-gon centred at the origin; the resulting simple polytope has
m = sum(a_i) facets and dimension n = m - 3.  A facet subset is a face of the
boundary complex iff the origin lies in the convex hull of the polygon
vertices labelling the complementary facets.

Facets are the positions 0..m-1 of the facet_labels order, whose facets
0..n-1 form a vertex, so facets n, n+1, n+2 are the three off it; polygon
vertices keep their labels 1..2k+1.  FaceStructure holds, in those
positions, the three facts that the later stages read: the label of each
facet, the minimal non-faces (whose products generate the Stanley-Reisner
ideal), and the three facets off each vertex (where a characteristic
matrix must be non-singular).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


def _validated_weights(weights: Sequence[int]) -> tuple[int, ...]:
    w = tuple(weights)
    if len(w) < 5 or len(w) % 2 == 0:
        raise ValueError(f"weights must have odd length >= 5, got {len(w)}")
    if any(not isinstance(a, int) or a < 1 for a in w):
        raise ValueError(f"weights must be positive integers, got {w}")
    return w


def canonical_weights(weights: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically greatest image of the cyclic word under rotation and
    reflection.  Idempotent."""
    w = _validated_weights(weights)
    nv = len(w)
    candidates = []
    for word in (w, w[::-1]):
        for shift in range(nv):
            candidates.append(word[shift:] + word[:shift])
    return max(candidates)


@dataclass(frozen=True)
class GaleDiagram:
    """Weighted odd polygon defining a simple n-polytope with n+3 facets."""

    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _validated_weights(self.weights))

    @property
    def k(self) -> int:
        return (len(self.weights) - 1) // 2

    @property
    def m(self) -> int:
        return sum(self.weights)

    @property
    def n(self) -> int:
        return self.m - 3


def origin_in_hull(labels: Iterable[int], k: int) -> bool:
    """Whether the origin lies in the convex hull of the named vertices of a
    regular (2k+1)-gon.

    A nonempty vertex subset misses the origin iff it fits inside an arc of
    k+1 consecutive vertices: such an arc spans an angle k*2pi/(2k+1) < pi and
    hence sits in an open half-plane, while any wider spread does not.
    """
    nv = 2 * k + 1
    chosen = set()
    for lab in labels:
        if not 1 <= lab <= nv:
            raise ValueError(f"label {lab} outside 1..{nv}")
        chosen.add(lab)
    if not chosen:
        return False
    for start in range(nv):
        arc = {(start + t) % nv + 1 for t in range(k + 1)}
        if chosen <= arc:
            return False
    return True


# Facet orders for the two polytopes whose characteristic-matrix and ideal
# tables are shipped as fixtures, as the label of each facet position; the
# leading five facets form a vertex and the trailing three map to the
# quotient variables x, y, z in that order.  The published facet names are
# F1_1 F1_2 F1_3 F3_1 F3_2 F5 F2 F4 for (3,1,2,1,1) and
# F1_1 F1_2 F2_1 F3_1 F3_2 F5 F2_2 F4 for (2,2,2,1,1).
_PINNED_ORDERS = {
    (3, 1, 2, 1, 1): (1, 1, 1, 3, 3, 5, 2, 4),
    (2, 2, 2, 1, 1): (1, 1, 2, 3, 3, 5, 2, 4),
}


def _vertex_complements(labels: Sequence[int], k: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted 0-based facet triples whose labels contain the origin in their
    hull, in lexicographic order.

    The complement of each such triple is a vertex of the polytope (a maximal
    face of the boundary complex): every face has at most n = m-3 facets, so
    the n-element faces are exactly these complements.
    """
    return tuple(triple for triple in combinations(range(len(labels)), 3)
                 if origin_in_hull({labels[i] for i in triple}, k))


def facet_labels(diagram: GaleDiagram) -> tuple[int, ...]:
    """Polygon label of each facet in a deterministic order whose first n
    facets form a vertex.

    The two fixture polytopes use their published orders.  Any other diagram
    is ordered by polygon label, then the lexicographically least vertex is
    moved to the front (label-sorted rotations alone need not start with a
    vertex, e.g. for [1,1,1,1,1]).
    """
    if diagram.weights in _PINNED_ORDERS:
        return _PINNED_ORDERS[diagram.weights]
    labels = [v for v, count in enumerate(diagram.weights, start=1) for _ in range(count)]
    vertex, off = min((tuple(i for i in range(diagram.m) if i not in t), t)
                      for t in _vertex_complements(labels, diagram.k))
    return tuple(labels[i] for i in vertex + off)


@dataclass(frozen=True)
class FaceStructure:
    """What every later stage reads of the polytope, in 0-based positions
    of the facet_labels order: the label of each facet, the minimal
    non-faces, and the three facets off each vertex."""

    labels: tuple[int, ...]
    minimal_nonfaces: tuple[tuple[int, ...], ...]
    vertex_complements: tuple[tuple[int, int, int], ...]

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return self.m - 3


def face_structure(diagram: GaleDiagram) -> FaceStructure:
    """The face structure in the facet_labels order.  The 2k+1 minimal
    non-faces are the facets labelled in an arc of k consecutive polygon
    vertices: entry i holds the sorted facets with labels i+1, ..., i+k
    (mod 2k+1), so its size is the weight window sum a_(i+1) + ... + a_(i+k)."""
    labels = facet_labels(diagram)
    k, nv = diagram.k, 2 * diagram.k + 1
    arcs = [{(i + t) % nv + 1 for t in range(k)} for i in range(nv)]
    nonfaces = tuple(tuple(f for f, label in enumerate(labels) if label in arc)
                     for arc in arcs)
    return FaceStructure(labels, nonfaces, _vertex_complements(labels, k))
