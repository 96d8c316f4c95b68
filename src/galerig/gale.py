"""Gale diagrams on regular odd polygons and the face structure of the
corresponding simple polytopes.

A weight vector [a_1, ..., a_{2k+1}] places a_i facets over vertex i of a
regular (2k+1)-gon centred at the origin; the resulting simple polytope has
m = sum(a_i) facets and dimension n = m - 3.  A facet subset is a face of the
boundary complex iff the origin lies in the convex hull of the polygon
vertices labelling the complementary facets.

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
from typing import Iterable, NamedTuple, Sequence


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


class GaleDiagram:
    """Weighted odd polygon defining a simple n-polytope with n+3 facets.
    Immutable, hashable and equal by weights."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[int]):
        object.__setattr__(self, "weights", _validated_weights(weights))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaleDiagram is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaleDiagram is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.weights,))

    def __repr__(self) -> str:
        return f"GaleDiagram(weights={self.weights!r})"

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


@lru_cache(maxsize=None)
def _hull_triples(k: int) -> frozenset[tuple[int, int, int]]:
    """The ascending label triples a < b < c of the (2k+1)-gon whose hull
    holds the origin: C(2k+1, 3) candidates, each tested once by
    origin_in_hull.  One or two distinct labels never hold it (an odd
    polygon has no antipodal pair), so a facet triple holds the origin iff
    its sorted labels are in this table."""
    return frozenset(t for t in combinations(range(1, 2 * k + 2), 3) if origin_in_hull(t, k))


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

    The two fixture polytopes use their published orders.  Any other diagram
    is ordered by polygon label, then the lexicographically least vertex is
    moved to the front (label-sorted rotations alone need not start with a
    vertex, e.g. for [1,1,1,1,1]); the vertex complements found on the
    label order choose that vertex, and those of the final order are read
    off its labels again, which is cheaper than mapping the first ones to
    their new positions and sorting them once more.  Of two facet sets of one
    size, the lexicographically smaller has the greater complement, so
    the least vertex is the complement of the greatest triple.  The 2k+1
    minimal non-faces are the facets labelled in an arc of k consecutive
    polygon vertices: entry i holds the sorted facets with labels i+1, ...,
    i+k (mod 2k+1), so its size is the weight window sum a_(i+1) + ... +
    a_(i+k)."""
    k, nv = diagram.k, 2 * diagram.k + 1
    labels = _PINNED_ORDERS.get(diagram.weights)
    if labels is not None:
        complements = _vertex_complements(labels, k)
    else:
        labels = [v for v, count in enumerate(diagram.weights, start=1) for _ in range(count)]
        off = _vertex_complements(labels, k)[-1]  # its complement is the least vertex
        vertex = tuple(i for i in range(diagram.m) if i not in off)
        labels = tuple(labels[i] for i in vertex + off)
        complements = _vertex_complements(labels, k)
    arcs = [{(i + t) % nv + 1 for t in range(k)} for i in range(nv)]
    nonfaces = tuple(tuple(f for f, label in enumerate(labels) if label in arc)
                     for arc in arcs)
    return FaceStructure(labels, nonfaces, complements)
