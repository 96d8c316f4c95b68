"""Gale diagrams on regular odd polygons and the face structure of the
corresponding simple polytopes.

A weight vector [a_1, ..., a_{2k+1}] places a_i facets over vertex i of a
regular (2k+1)-gon centred at the origin; the resulting simple polytope has
m = sum(a_i) facets and dimension n = m - 3.  A facet subset is a face of the
boundary complex iff the origin lies in the convex hull of the polygon
vertices labelling the complementary facets.

Two results of that criterion have closed forms: three labels hold the
origin iff each of their three cyclic gaps is at most k (_hull_triples),
and the greatest such triple is (k, 2k, 2k+1), whose last-labelled
facets are the three off the least vertex (face_structure).

Facets are the positions 0..m-1 of the facet order of face_structure,
whose facets 0..n-1 form a vertex, so facets n, n+1, n+2 are the three off
it; polygon vertices keep their labels 1..2k+1.  FaceStructure holds, in
those positions, the three facts that the later stages read: the label of
each facet, the minimal non-faces (whose products generate the
Stanley-Reisner ideal), and the three facets off each vertex (where a
characteristic matrix must be non-singular).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple, Sequence


def _validated_weights(weights: Sequence[int]) -> tuple[int, ...]:
    w = tuple(weights)
    if len(w) < 5 or len(w) % 2 == 0:
        raise ValueError(f"weights must have odd length >= 5, got {len(w)}")
    # bool is an int subclass, but True is no facet count
    if any(not isinstance(a, int) or isinstance(a, bool) or a < 1 for a in w):
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


@lru_cache(maxsize=None)
def weight_symmetries(weights: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The rotations and reflections of the weighted polygon, other than
    the identity, that fix the weights, as maps p of its 0-based vertices,
    vertex i to p[i] with a_(p[i]) = a_i: the maps i -> s + i and i -> s - i
    (mod 2k+1) whose word, a_(p[i]) in place i, is among the images that
    canonical_weights compares and equals the weights themselves."""
    nv = len(weights)
    maps = (tuple((s + sign * i) % nv for i in range(nv)) for sign in (1, -1) for s in range(nv))
    return tuple(p for p in maps if p != tuple(range(nv)) and
                 all(weights[p[i]] == a for i, a in enumerate(weights)))


class _Weights(NamedTuple):
    weights: tuple[int, ...]


class GaleDiagram(_Weights):
    """Weighted odd polygon defining a simple n-polytope with n+3 facets.
    Immutable, hashable and equal by weights, as the one-field NamedTuple
    (weights,) whose __new__ validates them."""

    __slots__ = ()

    def __new__(cls, weights: Sequence[int]):
        return super().__new__(cls, _validated_weights(weights))

    @property
    def k(self) -> int:
        return (len(self.weights) - 1) // 2

    @property
    def m(self) -> int:
        return sum(self.weights)

    @property
    def n(self) -> int:
        return self.m - 3


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


@lru_cache(maxsize=None)
def _hull_triples(k: int) -> frozenset[tuple[int, int, int]]:
    """The ascending label triples a < b < c of the (2k+1)-gon whose hull
    holds the origin: those whose three cyclic gaps b - a, c - b and
    2k+1 - c + a are each at most k.  A vertex set misses the origin iff it
    fits inside an arc of k+1 consecutive vertices (such an arc spans an
    angle k*2pi/(2k+1) < pi, so it sits in an open half-plane, while any
    wider spread does not), and three labels fit in such an arc iff the
    gap across the arc's outside, one of their cyclic gaps, is at least
    k+1.  One or two distinct labels never hold the origin (an odd polygon
    has no antipodal pair), so a facet triple holds it iff its sorted
    labels are in this table."""
    nv = 2 * k + 1
    return frozenset((a, b, c) for a, b, c in combinations(range(1, nv + 1), 3)
                     if b - a <= k and c - b <= k and nv - c + a <= k)


def _vertex_complements(labels: Sequence[int], k: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted 0-based facet triples whose labels contain the origin in their
    hull, in lexicographic order.  Such a triple has three distinct labels
    that form an entry of the per-k table _hull_triples, so the triples are
    read off the label groups: for each entry (a, b, c), every facet
    labelled a with every facet labelled b and every facet labelled c.

    The complement of each such triple is a vertex of the polytope (a maximal
    face of the boundary complex): every face has at most n = m-3 facets, so
    the n-element faces are exactly these complements.
    """
    groups: dict[int, list[int]] = {}
    for facet, label in enumerate(labels):
        groups.setdefault(label, []).append(facet)
    return tuple(sorted(tuple(sorted(triple)) for a, b, c in _hull_triples(k)
                        for triple in product(groups.get(a, ()), groups.get(b, ()),
                                              groups.get(c, ()))))


class FaceStructure(NamedTuple):
    """What every later stage reads of the polytope, in 0-based positions
    of the face_structure order: the label of each facet, the minimal
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
    """The face structure, in a deterministic facet order whose first n
    facets form a vertex.

    The two fixture polytopes use their published orders.  Any other
    diagram is ordered by polygon label, with the lexicographically least
    vertex moved to the front (label-sorted orders alone need not start
    with a vertex, e.g. for [1,1,1,1,1]).  Of two facet sets of one size,
    the lexicographically smaller has the greater complement, so the least
    vertex is the complement of the greatest facet triple whose labels
    hold the origin, and that triple carries the labels (k, 2k, 2k+1):

    - a hull triple's least label is at most k, since labels above k lie in
      the arc k+1..2k+1 of k+1 vertices (_hull_triples);
    - with least label k, the gap 2k+1 - c + k <= k forces c = 2k+1, and
      then b <= 2k, so (k, 2k, 2k+1) is the greatest hull triple;
    - facets ascend with their labels, so the last facets labelled k, 2k
      and 2k+1 form the greatest facet triple.

    The final order is therefore the label order with one facet of each of
    those labels moved, in that order, to the end, and its vertex
    complements are read off its labels once.  The 2k+1 minimal non-faces
    are the facets labelled in an arc of k consecutive polygon vertices:
    entry i holds the sorted facets with labels i+1, ..., i+k (mod 2k+1),
    so its size is the weight window sum a_(i+1) + ... + a_(i+k)."""
    k, nv = diagram.k, 2 * diagram.k + 1
    labels = _PINNED_ORDERS.get(diagram.weights)
    if labels is None:
        trail = (k, 2 * k, nv)
        lead = [v for v, count in enumerate(diagram.weights, start=1) for _ in range(count)]
        for label in trail:
            lead.remove(label)
        labels = tuple(lead) + trail
    arcs = [{(i + t) % nv + 1 for t in range(k)} for i in range(nv)]
    nonfaces = tuple(tuple(f for f, label in enumerate(labels) if label in arc)
                     for arc in arcs)
    return FaceStructure(labels, nonfaces, _vertex_complements(labels, k))
