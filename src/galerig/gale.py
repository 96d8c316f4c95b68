"""Gale diagrams on regular odd polygons and the face structure of the
corresponding simple polytopes.

A weight vector [a_1, ..., a_{2k+1}] places a_i facets over vertex i of a
regular (2k+1)-gon centred at the origin; the resulting simple polytope has
m = sum(a_i) facets and dimension n = m - 3.  A facet subset is a face of the
boundary complex iff the origin lies in the convex hull of the polygon
vertices labelling the complementary facets.
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


@dataclass(frozen=True)
class FacetLabeling:
    """Ordered facets, each carrying its polygon-vertex label."""

    names: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.labels):
            raise ValueError("names and labels must have equal length")


# Facet orders for the two polytopes whose characteristic-matrix and ideal
# tables are shipped as fixtures; the leading five facets form a vertex and
# the trailing three map to the quotient variables x, y, z in that order.
_PINNED_ORDERS = {
    (3, 1, 2, 1, 1): (
        ("F1_1", "F1_2", "F1_3", "F3_1", "F3_2", "F5", "F2", "F4"),
        (1, 1, 1, 3, 3, 5, 2, 4),
    ),
    (2, 2, 2, 1, 1): (
        ("F1_1", "F1_2", "F2_1", "F3_1", "F3_2", "F5", "F2_2", "F4"),
        (1, 1, 2, 3, 3, 5, 2, 4),
    ),
}


def _facet_names(weights: Sequence[int]) -> list[tuple[str, int]]:
    named = []
    for v, count in enumerate(weights, start=1):
        if count == 1:
            named.append((f"F{v}", v))
        else:
            named.extend((f"F{v}_{j}", v) for j in range(1, count + 1))
    return named


def _vertex_complements(labels: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """3-subsets of facet indices whose labels contain the origin in their hull.

    The complement of each such triple is a vertex of the polytope (a maximal
    face of the boundary complex): every face has at most n = m-3 facets, so
    the n-element faces are exactly these complements.
    """
    m = len(labels)
    out = []
    for triple in combinations(range(1, m + 1), 3):
        if origin_in_hull({labels[i - 1] for i in triple}, k):
            out.append(triple)
    return out


def facet_labeling(diagram: GaleDiagram) -> FacetLabeling:
    """Deterministic facet order whose first n facets form a vertex.

    The two fixture polytopes use their published orders.  Any other diagram
    is ordered by polygon label, then the lexicographically least vertex is
    moved to the front (label-sorted rotations alone need not start with a
    vertex, e.g. for [1,1,1,1,1]).
    """
    if diagram.weights in _PINNED_ORDERS:
        return FacetLabeling(*_PINNED_ORDERS[diagram.weights])
    named = _facet_names(diagram.weights)
    labels = [lab for _, lab in named]
    triples = _vertex_complements(labels, diagram.k)
    if not triples:
        raise ValueError("diagram admits no vertex; cannot normalize the facet order")
    m = diagram.m
    best = min(tuple(sorted(set(range(1, m + 1)) - set(t))) for t in triples)
    order = list(best) + [i for i in range(1, m + 1) if i not in set(best)]
    return FacetLabeling(
        tuple(named[i - 1][0] for i in order),
        tuple(named[i - 1][1] for i in order),
    )


def minimal_nonfaces(diagram: GaleDiagram,
                     labeling: FacetLabeling | None = None) -> tuple[frozenset[int], ...]:
    """The 2k+1 minimal non-faces: facets labelled in an arc of k consecutive
    polygon vertices.  Entry i-1 collects labels {i, ..., i+k-1} (mod 2k+1),
    so its size is the weight window sum a_i + ... + a_{i+k-1}."""
    if labeling is None:
        labeling = facet_labeling(diagram)
    k, nv = diagram.k, 2 * diagram.k + 1
    out = []
    for i in range(1, nv + 1):
        arc = {(i - 1 + t) % nv + 1 for t in range(k)}
        out.append(frozenset(j for j, lab in enumerate(labeling.labels, start=1)
                             if lab in arc))
    return tuple(out)


@dataclass(frozen=True)
class FaceStructure:
    """Facet-level combinatorics of the polytope: labelled facet order,
    minimal non-faces, and vertices (maximal faces)."""

    m: int
    n: int
    labeling: FacetLabeling
    minimal_nonfaces: tuple[frozenset[int], ...]
    maximal_faces: tuple[frozenset[int], ...]


def face_structure(diagram: GaleDiagram) -> FaceStructure:
    labeling = facet_labeling(diagram)
    mnf = minimal_nonfaces(diagram, labeling)
    triples = _vertex_complements(labeling.labels, diagram.k)
    m = diagram.m
    everything = set(range(1, m + 1))
    maximal = sorted((frozenset(everything - set(t)) for t in triples),
                     key=lambda f: tuple(sorted(f)))
    fs = FaceStructure(m=m, n=diagram.n, labeling=labeling,
                       minimal_nonfaces=mnf, maximal_faces=tuple(maximal))
    if frozenset(range(1, diagram.n + 1)) not in set(fs.maximal_faces):
        raise ValueError("facet order normalization failed: leading facets are not a vertex")
    return fs
