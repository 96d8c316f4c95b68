"""Independent oracles used by the tests.

Each oracle decides its question by a different route than the production
code: exact rational plane geometry and the arc test (origin_in_hull)
for the origin-in-hull test (the package reads its label triples off
their cyclic gaps), exhaustive subset scans for minimal non-faces and
f/h-vectors, the vertex complements by a test of every facet triple and
the least vertex by a scan (the package reads them off the label groups
and moves the last facets labelled k, 2k and 2k+1 to the end), the
backtrack's search plan by rescanning every pair at each step (the
package counts closed pairs as it goes), a vectorized full scan over
every completion block and the column-by-column backtracker for
characteristic matrices (both on the primal [I_n | B] columns, where the
package works with the per-facet forms of the Gale dual), the canonical
tuples by sorting and counting a full list (the package bounds its
backtrack and multiplies multinomials), their orbits
under same-label facet permutations closed breadth-first under every
transposition, and by a union-find over every matrix with adjacent ones
(the package links one canonical tuple per class of leading
permutations), and
under the automorphisms of the polytope with the label permutations found
by a scan of all of them and renormalised by a search of GL(3, GF(2)) (the
package lists the weight-preserving polygon symmetries and builds each
renormalisation from the basis), a Tor class's record from its full
lists, the h-vector divided out of the whole Betti table (the package
reads the numerator off the window sums), monomial-wise
linear substitution, the Poincare pairing, codim and order on coset
coordinates of the saturated quotient (the package reads them off the
socle functional), GL(3, GF(2)) as the independent triples of a scan of
all 343 triples of nonzero forms (the package walks a word tree in two
generators), the pair-by-pair GL(3, GF(2)) substitution search for
graded isomorphism (the package compares one key per matrix), the
saturated ideal reduced a second time in every degree (the package
stores the rows it reduced once), the
isomorphism key by a scan of all 168 substitutions (the package fills one
orbit per key class along a fixed word tree in two generators), the socle
functional of a saturated quotient with its duality checked degree by
degree (the package reads phi off the top degree of the
ideal alone and checks ranks against the h-vector), the top functional
one matrix at a time, every block of rows eliminated from nothing and the
ranks taken bit by bit in every degree (the package continues forward
passes shared by a diagram's matrices and mirrors ranks sliced off
stacked tables), phi read off the
reduced echelon rows of the top degree (the package reads it off the
forward pass of elimination), the inverse system of
a socle functional, the key kernels the package replaced with table
lookups (elimination scanning every pivot, orbit closure from a frontier,
catalecticant rows bit by bit), the codim/ord profile by products with
the linear forms (the package contracts phi by them), report --verify's
record by the saturated quotients of the 42 published blocks (the package
reads each block's phi off top_functionals and matches an ideal row by
containment in Ann(phi) and its dimensions), multiplication by a linear
form as the image over exponent-sum columns (the package shifts lex
blocks), the transpose by one sum of bits per entry (the package walks
the set bits), block rows by their digits (the package looks each row
up), adjacent-sum
multisets, the paper's Petersen 5-cycles and the 120-permutation linear
systems for the pentagon Tor class (the package solves one arrangement of
the window sums per rotation and reflection class), and the sphere-product
decomposition of the moment-angle manifold, checked against the Betti
table's additive ranks, and the vertex minors of a matrix's 0/1 integral
lift by fraction-free integer elimination, on the vertices a scan of
every facet triple finds by origin_in_hull_exact (the package tests one
mod-2 basis off each vertex).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import comb, pi, tan
from typing import Iterable, Sequence

import numpy as np

from galerig import verify
from galerig.betti import betti_table, h_vector, window_sums
from galerig.charmat import VARIABLES, _renormaliser, is_characteristic
from galerig.cohomology import (
    LINEAR_FORM_NAMES,
    LINEAR_FORMS,
    _GENERATORS,
    _catalecticant_tables,
    _nonface_rows,
    _saturated_ideal,
    _subst_matrix,
    check_inverse_system,
    codim,
    generators,
    invariant_profile,
    iso_keys,
    order,
    quotient_functional,
    quotient_presentation,
    substitution_maps_ideal,
)
from galerig.gale import (
    _PINNED_ORDERS,
    FaceStructure,
    GaleDiagram,
    _hull_triples,
    canonical_weights,
    face_structure,
    weight_symmetries,
)
from galerig.gf2 import (
    GradedSubspace,
    echelon,
    format_poly,
    hyperplane_functional,
    image,
    monomial_count,
    monomials,
    parse_poly,
    rank,
    table_image,
    times_form,
    transpose,
)


# ---------------------------------------------------------------------------
# the h-vector from the Betti table


def h_vector_by_betti_table(diagram: GaleDiagram) -> tuple[int, ...]:
    """betti.h_vector from the whole Betti table: sum (-1)^i beta^{-i,2j}
    t^j, divided by (1 - t)^3 as three running sums, the quotient's
    coefficients above degree n checked to be zero.  (The package reads
    the numerator off the window sums.)"""
    coeffs = [0] * (diagram.m + 1)
    for (i, twoj), b in betti_table(diagram).items():
        coeffs[twoj // 2] += (-1) ** i * b
    for _ in range(3):
        coeffs = list(accumulate(coeffs))
    assert not any(coeffs[diagram.n + 1:])
    return tuple(coeffs[:diagram.n + 1])


# ---------------------------------------------------------------------------
# the arc test of origin-in-hull


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


# ---------------------------------------------------------------------------
# exact rational origin-in-hull test


@lru_cache(maxsize=None)
def _unit_circle_points(nv: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Rational points exactly on the unit circle, one per polygon vertex.

    Each point is ((1-t^2)/(1+t^2), 2t/(1+t^2)) for a dyadic rational t close
    to tan(theta/2); the angular error is below 2^-39 radians while every
    sign decision made on these points has slack at least pi/nv - 2^-38, so
    the perturbation can never flip an answer.
    """
    points = []
    for j in range(nv):
        theta = 2 * pi * j / nv
        t = Fraction(round(tan(theta / 2) * 2**40), 2**40)
        denom = 1 + t * t
        points.append(((1 - t * t) / denom, 2 * t / denom))
    return tuple(points)


@lru_cache(maxsize=None)
def _cross_signs(nv: int) -> dict:
    pts = _unit_circle_points(nv)
    signs = {}
    for i in range(nv):
        for j in range(nv):
            value = pts[i][0] * pts[j][1] - pts[i][1] * pts[j][0]
            signs[(i, j)] = 0 if value == 0 else (1 if value > 0 else -1)
    return signs


def origin_in_hull_exact(labels, k: int) -> bool:
    """Convex-hull membership of the origin via exact cross products.

    The origin lies in the hull iff it lies in some triangle on the chosen
    vertices (Caratheodory in the plane); for a triangle (a, b, c) that holds
    iff the position-vector cross products a x b, b x c, c x a share a sign.
    Collinearity with the origin would need an antipodal vertex pair, which
    odd polygons do not have, so zero signs are rejected outright.
    """
    nv = 2 * k + 1
    chosen = sorted({lab - 1 for lab in labels})
    if any(not 0 <= v < nv for v in chosen):
        raise ValueError("label out of range")
    if len(chosen) < 3:
        # one or two vertices of a unit circle never contain the centre
        # (a segment would require an antipodal pair)
        return False
    signs = _cross_signs(nv)
    for a, b, c in combinations(chosen, 3):
        s1, s2, s3 = signs[(a, b)], signs[(b, c)], signs[(c, a)]
        assert s1 and s2 and s3, "degenerate triangle on an odd polygon"
        if s1 == s2 == s3:
            return True
    return False


# ---------------------------------------------------------------------------
# brute-force face structure


# Faces here are sets of 1-based facets: facet i is position i-1 of the
# package's 0-based facet order (facet_labels).


def facet_labels(diagram: GaleDiagram) -> tuple[int, ...]:
    """Polygon label of each facet in the package's facet order, whose
    first n facets form a vertex: the labels of face_structure."""
    return face_structure(diagram).labels


def is_face(indices: Iterable[int], diagram: GaleDiagram,
            labels: Sequence[int] | None = None) -> bool:
    """Face criterion: the complement's labels must contain the origin."""
    if labels is None:
        labels = facet_labels(diagram)
    m = diagram.m
    chosen = set()
    for i in indices:
        if not 1 <= i <= m:
            raise ValueError(f"facet index {i} outside 1..{m}")
        chosen.add(i)
    rest = {labels[i - 1] for i in range(1, m + 1) if i not in chosen}
    return origin_in_hull(rest, diagram.k)


def one_based(facets: Iterable[int]) -> frozenset[int]:
    """A set of the package's 0-based facets as 1-based oracle facets."""
    return frozenset(i + 1 for i in facets)


def maximal_faces(fs) -> list[frozenset[int]]:
    """The vertices of a face structure as 1-based facet sets: the
    complements of its vertex_complements triples."""
    return [one_based(set(range(fs.m)) - set(t)) for t in fs.vertex_complements]


def brute_force_minimal_nonfaces(diagram: GaleDiagram) -> set[frozenset[int]]:
    """Inclusion-minimal non-faces by scanning all facet subsets."""
    labels = facet_labels(diagram)
    m = diagram.m
    nonfaces = []
    for size in range(m + 1):
        for subset in combinations(range(1, m + 1), size):
            if not is_face(subset, diagram, labels):
                nonfaces.append(frozenset(subset))
    return {s for s in nonfaces if not any(t < s for t in nonfaces)}


def brute_force_vertex_complements(diagram: GaleDiagram) -> tuple[tuple[int, ...], ...]:
    """The 0-based facet triples, in lexicographic order, whose complement
    is_face accepts."""
    labels = facet_labels(diagram)
    everything = set(range(1, diagram.m + 1))
    return tuple(t for t in combinations(range(diagram.m), 3)
                 if is_face(everything - one_based(t), diagram, labels))


def vertex_complements_by_scan(labels: Sequence[int], k: int) -> tuple[tuple[int, int, int], ...]:
    """The facet triples, in lexicographic order, whose sorted labels are
    in the package's per-k hull table, by testing all C(m, 3) facet
    triples (the package reads them off the label groups)."""
    hull = _hull_triples(k)
    return tuple(triple for triple, triple_labels in zip(combinations(range(len(labels)), 3),
                                                         combinations(labels, 3))
                 if tuple(sorted(triple_labels)) in hull)


def face_structure_by_scan(diagram: GaleDiagram) -> FaceStructure:
    """galerig.gale.face_structure with the vertex complements found by
    vertex_complements_by_scan and the least vertex by a scan over every
    vertex (the package moves the last facets labelled k, 2k and 2k+1,
    which its docstring proves are the three off the least vertex, to the
    end)."""
    k, nv = diagram.k, 2 * diagram.k + 1
    labels = _PINNED_ORDERS.get(diagram.weights)
    if labels is not None:
        complements = vertex_complements_by_scan(labels, k)
    else:
        labels = [v for v, count in enumerate(diagram.weights, start=1) for _ in range(count)]
        triples = vertex_complements_by_scan(labels, k)
        vertex, off = min((tuple(i for i in range(diagram.m) if i not in t), t) for t in triples)
        position = {facet: p for p, facet in enumerate(vertex + off)}
        labels = tuple(labels[i] for i in vertex + off)
        complements = tuple(sorted(tuple(sorted(position[f] for f in t)) for t in triples))
    arcs = [{(i + t) % nv + 1 for t in range(k)} for i in range(nv)]
    nonfaces = tuple(tuple(f for f, label in enumerate(labels) if label in arc)
                     for arc in arcs)
    return FaceStructure(labels, nonfaces, complements)


def search_plan_by_rescan(fs) -> list[tuple[int, list[tuple[int, int]]]]:
    """The backtrack order of galerig.charmat._search_plan, greedy with
    every pair of every unplaced facet rescanned at each step (the package
    keeps a count of closed pairs per facet)."""
    n = fs.n
    pairs_at: dict[int, list[tuple[int, int]]] = {f: [] for f in range(n + 3)}
    for a, b, c in fs.vertex_complements:
        pairs_at[a].append((b, c))
        pairs_at[b].append((a, c))
        pairs_at[c].append((a, b))
    placed = set(range(n, n + 3))
    plan = []
    while len(placed) < n + 3:
        closing = {f: [(a, b) for a, b in pairs_at[f] if a in placed and b in placed]
                   for f in range(n) if f not in placed}
        facet = max(closing, key=lambda f: len(closing[f]))  # first maximum wins
        plan.append((facet, closing[facet]))
        placed.add(facet)
    return plan


def face_counts(diagram: GaleDiagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f-vector and h-vector from exhaustive face enumeration.

    f[j] counts faces with j facets (f[0] = 1 for the empty face), so the
    vertex count is f[n] and sum(h) = f[n].
    """
    labels = facet_labels(diagram)
    k, m, n = diagram.k, diagram.m, diagram.n
    f = [0] * (n + 1)
    f[0] = 1
    for size in range(1, n + 1):
        for subset in combinations(range(1, m + 1), size):
            chosen = set(subset)
            rest = {labels[i - 1] for i in range(1, m + 1) if i not in chosen}
            if origin_in_hull(rest, k):
                f[size] += 1
    h = tuple(
        sum((-1) ** (i - j) * comb(n - j, i - j) * f[j] for j in range(i + 1))
        for i in range(n + 1)
    )
    return tuple(f), h


# ---------------------------------------------------------------------------
# characteristic matrices on the primal columns
#
# A completion block is the tuple of columns n+1..m of [I_n | B], each an int
# with bit r-1 carrying row r; ascending block tuples are the order of the
# reference lists.


def block_row_strings(block, n: int) -> list[str]:
    """Rows of a completion block as bit strings, leftmost = column n+1."""
    return ["".join(str((c >> r) & 1) for c in block) for r in range(n)]


def _independent(vectors) -> bool:
    """Linear independence of bit-packed GF(2) vectors (greedy reduction)."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v == 0:
            return False
        basis.append(v)
    return True


def column_backtrack_charmats(fs) -> list[tuple[int, ...]]:
    """Completion blocks by backtracking column by column over
    GF(2)^n \\ {0}, pruning as soon as a vertex fully inside the assigned
    prefix has dependent columns; ascending by construction."""
    n, m = fs.n, fs.m
    faces_by_top: dict[int, list[list[int]]] = {c: [] for c in range(n + 1, m + 1)}
    for face in maximal_faces(fs):
        top = max(face)
        if top > n:
            faces_by_top[top].append(sorted(face))

    blocks: list[tuple[int, ...]] = []
    cols: dict[int, int] = {i: 1 << (i - 1) for i in range(1, n + 1)}

    def assign(c: int):
        if c > m:
            blocks.append(tuple(cols[i] for i in range(n + 1, m + 1)))
            return
        for v in range(1, 1 << n):
            cols[c] = v
            if all(_independent([cols[i] for i in face]) for face in faces_by_top[c]):
                assign(c + 1)
        del cols[c]

    assign(n + 1)
    return blocks



def brute_force_charmats(fs) -> list[tuple[int, int, int]]:
    """Every completion block over GF(2)^n \\ {0} cubed, tested face by face.

    For a vertex with identity columns on rows F, the remaining columns are
    independent iff their projections off F are; that reduces each test to a
    handful of vectorized integer comparisons over all (2^n - 1)^3 blocks.
    """
    n, m = fs.n, fs.m
    assert m - n == 3
    span = np.arange(1, 1 << n, dtype=np.int64)
    grids = (span[:, None, None], span[None, :, None], span[None, None, :])
    ok = np.ones((len(span),) * 3, dtype=bool)
    full = (1 << n) - 1
    for face in maximal_faces(fs):
        prefix_mask = 0
        tail = []
        for i in sorted(face):
            if i <= n:
                prefix_mask |= 1 << (i - 1)
            else:
                tail.append(i)
        mask = full ^ prefix_mask
        cols = [grids[i - n - 1] & mask for i in tail]
        if not cols:
            continue
        if len(cols) == 1:
            cond = cols[0] != 0
        elif len(cols) == 2:
            a, b = cols
            cond = (a != 0) & (b != 0) & (a != b)
        else:
            a, b, c = cols
            cond = ((a != 0) & (b != 0) & (c != 0)
                    & (a != b) & (a != c) & (b != c)
                    & ((a ^ b) != c))
        ok &= cond
    return sorted((int(i) + 1, int(j) + 1, int(l) + 1) for i, j, l in np.argwhere(ok))


def same_label_images(fs, forms) -> list[tuple[int, ...]]:
    """The matrix forms (leading facets, package encoding) moved by every
    transposition of two facets with one polygon label, each renormalised
    so that facets n..n+2 carry x, y, z again: every form is rewritten in
    the coordinates of the moved trailing forms, found by trying all eight
    coefficient vectors."""
    n, labels = fs.n, fs.labels
    images = []
    for a, b in combinations(range(fs.m), 2):
        if labels[a] != labels[b]:
            continue
        full = list(forms) + [1, 2, 4]
        full[a], full[b] = full[b], full[a]
        basis = full[n:]
        span = {}
        for c in range(8):
            v = 0
            for j in range(3):
                if (c >> j) & 1:
                    v ^= basis[j]
            span[v] = c
        images.append(tuple(span[v] for v in full[:n]))
    return images


@lru_cache(maxsize=None)
def _label_automorphisms(labels: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every permutation tau of the polygon labels, found by a scan of all
    (2k+1)! of them, that keeps each label's facet count and maps the label
    triples holding the origin in their hull (origin_in_hull_exact) onto
    themselves, as the tuple of tau(l) for l = 1..2k+1."""
    nv = max(labels)
    counts = Counter(labels)
    hull = {frozenset(t) for t in combinations(range(1, nv + 1), 3)
            if origin_in_hull_exact(t, (nv - 1) // 2)}
    return tuple(tau for tau in permutations(range(1, nv + 1))
                 if all(counts[tau[l - 1]] == counts[l] for l in range(1, nv + 1)) and
                 {frozenset(tau[l - 1] for l in t) for t in hull} == hull)


@lru_cache(maxsize=None)
def _renormaliser_by_search(basis: tuple[int, int, int]) -> tuple[int, int, int]:
    """The substitution of gl3() sending the forms basis[j] to variable j."""
    return next(rows for rows in gl3()
                if all(image(u, rows) == 1 << j for j, u in enumerate(basis)))


@lru_cache(maxsize=None)
def _polytope_facet_maps(fs) -> tuple[tuple[int, ...], ...]:
    """The facet maps of polytope_symmetry_images, each checked to map the
    vertex complements and minimal non-faces onto themselves."""
    m, labels = fs.m, fs.labels
    maps = []
    for a, b in combinations(range(m), 2):
        if labels[a] == labels[b]:
            perm = list(range(m))
            perm[a], perm[b] = b, a
            maps.append(perm)
    groups = {label: [f for f in range(m) if labels[f] == label] for label in set(labels)}
    for tau in _label_automorphisms(labels):
        perm = [0] * m
        for label, facets in groups.items():
            for facet, target in zip(facets, groups[tau[label - 1]]):
                perm[facet] = target
        maps.append(perm)
    complements = set(fs.vertex_complements)
    nonfaces = set(fs.minimal_nonfaces)
    for perm in maps:
        assert {tuple(sorted(perm[f] for f in t)) for t in complements} == complements
        assert {tuple(sorted(perm[f] for f in t)) for t in nonfaces} == nonfaces
    return tuple(map(tuple, maps))


def polytope_symmetry_images(fs, forms) -> list[tuple[int, ...]]:
    """The matrix forms moved by every same-label transposition and by every
    label automorphism (_label_automorphisms), which sends the i-th facet of
    label l to the i-th facet of label tau(l), each renormalised so that
    facets n..n+2 carry x, y, z again by the substitution found by a search
    of gl3().  Each facet map is checked to map the vertex complements and
    minimal non-faces of the face structure onto themselves, once per face
    structure (_polytope_facet_maps)."""
    n, m = fs.n, fs.m
    images = []
    for perm in _polytope_facet_maps(fs):
        full = list(forms) + [1, 2, 4]
        moved = [0] * m
        for f in range(m):
            moved[perm[f]] = full[f]
        rows = _renormaliser_by_search(tuple(moved[n:]))
        images.append(tuple(image(v, rows) for v in moved[:n]))
    return images


def _closed_orbits(forms_list, images) -> set[frozenset[int]]:
    """Orbits, as sets of list indices, of the matrices, each closed
    breadth-first under the images that images(forms) lists."""
    index = {forms: i for i, forms in enumerate(forms_list)}
    seen: set[int] = set()
    out = set()
    for start in range(len(forms_list)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            for moved in images(forms_list[frontier.pop()]):
                j = index[moved]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        seen |= orbit
        out.add(frozenset(orbit))
    return out


def facet_symmetry_orbits(fs, forms_list) -> set[frozenset[int]]:
    """Orbits of the matrices under the group of same-label facet
    permutations: each closed under every transposition
    (same_label_images)."""
    return _closed_orbits(forms_list, lambda forms: same_label_images(fs, forms))


def polytope_symmetry_orbits(fs, forms_list) -> set[frozenset[int]]:
    """Orbits of the matrices under the combinatorial automorphisms of the
    polytope that permute the label groups: each closed under every
    same-label transposition and label automorphism
    (polytope_symmetry_images)."""
    return _closed_orbits(forms_list, lambda forms: polytope_symmetry_images(fs, forms))


def canonical_counts(fs, blocks) -> Counter:
    """charmat.canonical_charmats from a full list: each matrix's forms
    sorted within the leading facets of each label, counted.  (The package
    bounds its backtrack to sorted forms and multiplies multinomials.)"""
    groups = [[f for f in range(fs.n) if fs.labels[f] == label] for label in set(fs.labels)]
    counts = Counter()
    for forms in blocks:
        moved = list(forms)
        for facets in groups:
            for facet, form in zip(facets, sorted(forms[f] for f in facets)):
                moved[facet] = form
        counts[tuple(moved)] += 1
    return counts


def orbits_by_matrix_union(fs, blocks) -> list[int]:
    """charmat.orbits by a union-find over the matrices themselves: each
    matrix is linked to its image under every adjacent transposition of
    two facets of one label, renormalised by the transvection v -> v +
    v_j (f + e_j) when trailing facet n + j meets a leading facet of form
    f, and each part's root in list order to its images under the
    weight-preserving polygon symmetries (gale.weight_symmetries),
    renormalised by charmat._renormaliser; an image missing from blocks
    links nothing.  Entry i is the least index of blocks[i]'s part.  (The
    package links one canonical tuple per class of same-label leading
    permutations.)"""
    n, labels = fs.n, fs.labels
    groups = [[f for f in range(fs.m) if labels[f] == label] for label in sorted(set(labels))]
    swaps = [pair for facets in groups for pair in zip(facets, facets[1:])]
    symmetries = []
    for p in weight_symmetries(tuple(map(len, groups))):
        source = [0] * fs.m
        for label, facets in enumerate(groups):
            for facet, target in zip(facets, groups[p[label]]):
                source[target] = facet
        symmetries.append(source)
    index = {forms: i for i, forms in enumerate(blocks)}
    parent = list(range(len(blocks)))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    def link(i: int, moved):
        j = index.get(tuple(moved))
        if j is not None:
            ri, rj = root(i), root(j)
            parent[max(ri, rj)] = min(ri, rj)

    for i, forms in enumerate(blocks):
        for a, b in swaps:  # a < b, and only b can be a trailing facet
            if b < n:
                moved = list(forms)
                moved[a], moved[b] = forms[b], forms[a]
            else:
                e, f = 1 << (b - n), forms[a]
                moved = [v ^ e ^ f if v & e else v for v in forms]
                moved[a] = f
            link(i, moved)
    for i, forms in enumerate(blocks):
        if parent[i] == i:
            full = forms + (1, 2, 4)
            for source in symmetries:
                g = _renormaliser(tuple(full[f] for f in source[n:]))
                link(i, [g[full[f]] for f in source[:n]])
    return [root(i) for i in range(len(blocks))]


def class_record_by_lists(matrices) -> dict:
    """cli.classify's record from each member's full matrix list (weights
    -> (face structure, list)): one top functional per part of
    orbits_by_matrix_union, keyed by iso_keys against a map of the
    member's own, every matrix counted with its part's key."""
    members = list(matrices)
    counts = [len(blocks) for _, blocks in matrices.values()]
    keys = []
    for w, (fs, blocks) in matrices.items():
        h = h_vector(GaleDiagram(w))
        roots = orbits_by_matrix_union(fs, blocks)
        distinct = sorted(set(roots))
        key = dict(zip(distinct, iso_keys(fs.n, h, [top_functional(fs, blocks[r], h)
                                                    for r in distinct])))
        keys.append(Counter(key[r] for r in roots))
    pairs = [{"left": list(members[i]), "right": list(members[j]),
              "checked": counts[i] * counts[j],
              "isomorphisms_found": sum(c * keys[j][key] for key, c in keys[i].items())}
             for i, j in combinations(range(len(members)), 2)]
    found = any(p["isomorphisms_found"] for p in pairs)
    verdict = ("B-RIGID-WITHIN-FAMILY" if len(members) == 1 else
               "NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND" if found else
               "NOT-B-RIGID; C-RIGID-WITHIN-CLASS")
    return {"members": [{"weights": list(w), "charmat_count": c}
                        for w, c in zip(members, counts)],
            "pairs": pairs, "verdict": verdict}


# ---------------------------------------------------------------------------
# polynomials as frozensets of exponent tuples (a monomial belongs to the set
# iff its coefficient is 1): products and substitution


def poly_multiply(p, q):
    """Product over GF(2); monomials appearing an even number of times cancel."""
    acc: set = set()
    for a in p:
        for b in q:
            acc ^= {tuple(x + y for x, y in zip(a, b))}
    return frozenset(acc)


def poly_to_vec(p, degree: int) -> int:
    """Bit vector of a homogeneous polynomial over monomials(degree)."""
    basis = monomials(degree)
    return sum(1 << basis.index(m) for m in p)


def form_poly(form: int):
    """The linear form with bit j standing for variable j of (x, y, z)."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return frozenset(units[j] for j in range(3) if (form >> j) & 1)


@lru_cache(maxsize=None)
def _monomial_image(mono, images: tuple, nvars_out: int):
    acc = frozenset({(0,) * nvars_out})
    for var, exp in enumerate(mono):
        for _ in range(exp):
            acc = poly_multiply(acc, images[var])
    return acc


def substitute_linear(p, images, nvars_out: int | None = None):
    """Substitute a linear form for each variable, monomial by monomial.

    Args:
        p: polynomial in v variables.
        images: one linear form per variable, written in the target variables
            (the zero form is allowed and kills monomials using that variable).
        nvars_out: arity of the target ring; inferred from the images when
            any of them is nonzero.

    Homogeneous input of degree d maps to a homogeneous polynomial of degree
    d (or to zero).
    """
    images = tuple(frozenset(img) for img in images)
    for img in images:
        for m in img:
            if sum(m) != 1:
                raise ValueError("every substitution image must be linear")
    if nvars_out is None:
        arities = {len(m) for img in images for m in img}
        if len(arities) != 1:
            raise ValueError("cannot infer target arity; pass nvars_out")
        nvars_out = arities.pop()
    acc: set = set()
    for mono in p:
        if len(mono) != len(images):
            raise ValueError("image list does not cover every variable")
        acc ^= _monomial_image(mono, images, nvars_out)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# coordinates over the coset basis of a saturated quotient: the Poincare
# pairing, codim by multiplication maps and order by iterating them


def coset_columns(q, degree: int) -> list[int]:
    """Monomial columns representing a basis of the quotient in one degree:
    the non-pivot columns of the ideal's echelon basis, whose pivots are
    the rows' highest bits."""
    pivots = {row.bit_length() - 1 for row in q.ideal.rows(degree)}
    return [c for c in range(monomial_count(degree)) if c not in pivots]


def poincare_nondegenerate(q) -> bool:
    """Non-degeneracy of the multiplication pairing between complementary
    quotient degrees, valued in the one-dimensional top degree."""
    n = q.n
    if q.hilbert[n] != 1:
        return False
    top_column = coset_columns(q, n)[0]
    for d in range(n + 1):
        left, right = coset_columns(q, d), coset_columns(q, n - d)
        if len(left) != len(right):
            return False
        rows = []
        for cl in left:
            row = 0
            for pos, cr in enumerate(right):
                product = tuple(a + b for a, b in
                                zip(monomials(d)[cl], monomials(n - d)[cr]))
                reduced = q.ideal.reduce(n, poly_to_vec({product}, n))
                if (reduced >> top_column) & 1:
                    row |= 1 << pos
            rows.append(row)
        if rank(rows, len(right)) < len(rows):
            return False
    return True


def _coset_coords(q, degree: int, vec: int) -> int:
    """Coordinates of a degree-d vector, reduced, over the coset basis."""
    reduced = q.ideal.reduce(degree, vec)
    return sum(((reduced >> c) & 1) << pos for pos, c in enumerate(coset_columns(q, degree)))


def _mult_matrix(q, form: int, degree: int) -> list[int]:
    """Multiplication by a linear form from quotient degree d to d+1, rows
    indexed by the degree-d coset basis."""
    return [_coset_coords(q, degree + 1, times_form(1 << c, degree, form))
            for c in coset_columns(q, degree)]


def codim_on_cosets(form: int, q) -> int:
    """Least degree d >= 1 at which multiplication by the form, as a matrix
    between the coset bases of degrees d and d+1, has a nonzero kernel."""
    for d in range(1, q.n):
        rows = _mult_matrix(q, form, d)
        if rank(rows, q.hilbert[d + 1]) < len(rows):
            return d
    raise RuntimeError("no annihilated degree found; quotient is malformed")


def order_via_quotient_maps(form: int, q) -> int:
    """Least power of the form that is zero in the quotient, by iterating
    the multiplication maps on coset coordinates instead of reducing
    explicit powers."""
    coords, exponent = _coset_coords(q, 1, form), 1
    while coords:
        if exponent > q.n:
            raise RuntimeError("top-degree component is not full; quotient is malformed")
        coords = image(coords, _mult_matrix(q, form, exponent))
        exponent += 1
    return exponent


# ---------------------------------------------------------------------------
# graded isomorphism pair by pair, and the inverse system


@lru_cache(maxsize=None)
def gl3() -> tuple[tuple[int, int, int], ...]:
    """All 168 invertible 3x3 GF(2) matrices as row triples (bit j =
    variable j), in ascending order: the triples of nonzero forms, all 343
    of them, that are linearly independent (_independent)."""
    return tuple((a, b, c) for a in range(1, 8) for b in range(1, 8) for c in range(1, 8)
                 if _independent((a, b, c)))


@lru_cache(maxsize=None)
def _pullback_columns(rows: tuple[int, int, int], n: int) -> tuple[int, ...]:
    """The transpose of the degree-n substitution table of g = rows: column
    c of it is bit c of phi o g for each phi, phi of the image of monomial
    c."""
    return transpose(_subst_matrix(rows, n), monomial_count(n))


def _compose(phi: int, rows: tuple[int, int, int], n: int) -> int:
    """phi o g for the substitution g = rows on degree n."""
    return image(phi, _pullback_columns(rows, n))


def search_graded_iso(qa, qb):
    """First substitution in gl3() order that maps the first ideal onto the
    second in every stored degree, or None: all 168 tried on the full
    ideals."""
    return next((g for g in gl3() if substitution_maps_ideal(g, qa, qb)), None)


def search_iso_witnesses(quotients_a, quotients_b):
    """search_graded_iso for every pair, rows following quotients_a."""
    return [[search_graded_iso(qa, qb) for qb in quotients_b] for qa in quotients_a]


def saturated_ideal_by_two_passes(generators, top: int) -> GradedSubspace:
    """The graded ideal generated by (degree, vec) polynomials, degreewise up
    to top, in two passes: upward, each degree's span is reduced (echelon)
    and its rows times x, y, z join the next degree's span; then
    GradedSubspace.from_spans reduces every span again (the package stores
    the rows it reduced on the way up)."""
    spans = [[] for _ in range(top + 1)]
    for degree, vec in generators:
        spans[degree].append(vec)
    for d in range(1, top + 1):
        spans[d - 1] = echelon(spans[d - 1], monomial_count(d - 1))
        spans[d] += [times_form(row, d - 1, v) for row in spans[d - 1] for v in VARIABLES]
    return GradedSubspace.from_spans(spans)


def ideal_equal(generators, quotient) -> bool:
    """Whether the graded ideal generated by the (degree, vec) polynomials
    (saturated degreewise up to degree n+1) equals the quotient's ideal.
    Equality needs both full in degree n+1, and then a generator above it
    lies in both, so only those of degree <= n+1 are saturated."""
    top = quotient.n + 1
    return _saturated_ideal([g for g in generators if g[0] <= top], top) == quotient.ideal


def verification_by_quotients(iso_found: int, classes: dict) -> dict:
    """galerig.verify.run_verification's record by the saturated quotients
    (the package reads each published block's phi from top_functionals,
    matches an ideal row by containment in Ann(phi) and its dimensions,
    and certifies a cell on the row's own saturation): the quotient of
    each of the 42 published blocks (quotient_presentation), each parsed
    ideal row equal to its first label's ideal (ideal_equal) and every
    label's ideal equal to that one, each profiled block's phi read off
    its quotient's own I_n (quotient_functional) and checked against its
    dimensions (check_inverse_system), and each discrepant cell certified
    by codim and order on the block's quotient.  The matrix lists are
    diffed as the package does (verify._compare_matrices), and every table
    is read through galerig.verify, so a test that replaces one replaces
    it for both."""
    families = {"A": classes[verify.WEIGHTS_A], "B": classes[verify.WEIGHTS_B]}
    counts = {family: sum(sizes.values()) for family, (_, sizes) in families.items()}
    comparisons = {family: verify._compare_matrices(family, fs, counts[family])
                   for family, (fs, _) in families.items()}
    quotients = {label: quotient_presentation(fs, block)
                 for family, (fs, _) in families.items()
                 for label, block in verify.label_blocks(family).items()}
    ideal_rows = []
    for row in verify.ideal_tables():
        fs = families[row["table"]][0]
        record = {"table": row["table"], "labels": list(row["labels"]), "unparseable": False,
                  "bad_token": None, "matches": None, "computed_generators": None}
        try:
            gens = [parse_poly(text) for text in row["generators"]]
        except ValueError as err:
            block = verify.label_blocks(row["table"])[row["labels"][0]]
            ideal_rows.append({**record, "unparseable": True, "bad_token": str(err),
                               "computed_generators": [format_poly(g)
                                                       for g in generators(fs, block)],
                               "ok": True})
            continue
        first, *rest = (quotients[label] for label in row["labels"])
        matches = ideal_equal(gens, first) and all(q.ideal == first.ideal for q in rest)
        ideal_rows.append({**record, "matches": matches, "ok": matches})
    tables = verify.profile_tables()
    table_names = ("codim_A", "ord_A", "codim_B", "ord_B")
    profiles = {}
    for label in sorted({label for name in table_names for label in tables[name]}):
        q = quotients[label]
        phi = quotient_functional(q)
        check_inverse_system(phi, q.n, q.hilbert)
        profiles[label] = invariant_profile(phi, q.hilbert)
    discrepancies = []
    for name in table_names:
        kind = name.split("_")[0]
        for label, paper_values in tables[name].items():
            for col, (paper_v, got) in enumerate(zip(paper_values, profiles[label][kind])):
                if paper_v != got:
                    gamma = LINEAR_FORMS[col]
                    ideal = quotients[label].ideal
                    certified = (order if kind == "ord" else codim)(gamma, ideal) == got
                    discrepancies.append({
                        "table": name, "row": label, "column": tables["forms"][col],
                        "paper_value": paper_v, "computed_value": got, "certified": certified})
    return {
        "matrices": comparisons,
        "ideal_rows": ideal_rows,
        "profile_discrepancies": discrepancies,
        "iso_found": iso_found,
        "iso_pairs": counts["A"] * counts["B"],
        "passed": (all(c["ok"] for c in comparisons.values())
                   and all(r["ok"] for r in ideal_rows)
                   and all(d["certified"] for d in discrepancies)
                   and iso_found == 0),
    }


def socle_functional(q) -> int:
    """The linear functional phi on S_n whose kernel is I_n, as a bit vector
    over monomials(n): the kernel of the transposed echelon rows of I_n,
    found with an identity block as in annihilator.

    Raises ValueError unless I_n is a hyperplane and every I_d (d < n) is
    {f in S_d : phi(f * S_(n-d)) = 0}, the Gorenstein duality that makes
    the isomorphism keys complete, checked on the bitwise catalecticants.
    """
    n = q.n
    rows = q.ideal.rows(n)
    width = len(rows)
    transposed = [sum(((row >> c) & 1) << i for i, row in enumerate(rows)) | 1 << (width + c)
                  for c in range(monomial_count(n))]
    kernel = [row >> width for row in echelon_by_scan(transposed)[1]
              if not row & ((1 << width) - 1)]
    if len(kernel) != 1:
        raise ValueError(f"the ideal in degree {n} has corank {len(kernel)}, not 1")
    (phi,) = kernel
    for d in range(n):
        pairing = catalecticant_by_bits(phi, n, d)
        if (len(pairing) - len(echelon_by_scan(pairing)[1]) != q.ideal.dimension(d)
                or any(image(row, pairing) for row in q.ideal.rows(d))):
            raise ValueError(f"ideal is not the inverse system of its top degree "
                             f"(Poincare duality fails in degree {d})")
    return phi


def top_functional(fs, forms, h) -> int:
    """The socle functional of one characteristic matrix's quotient, by
    the route of galerig.cohomology.top_functionals one matrix at a time:
    I_n's rows, every minimal non-face's block from the row table in
    facet order, eliminated from nothing, phi read off that forward pass,
    and the duality checked by the bitwise catalecticant ranks in every
    degree, none mirrored.  Raises the kernel's ValueErrors: a matrix
    that is not characteristic, I_n of corank other than 1, an h-vector
    of other than n + 1 entries, and a rank other than h_d in degree d."""
    if not is_characteristic(forms, fs):
        raise ValueError("matrix is not characteristic over this face structure")
    n = fs.n
    full = tuple(forms) + VARIABLES
    products = []
    for nonface in fs.minimal_nonfaces:
        products += _nonface_rows(n, tuple(sorted([full[i] for i in nonface])))
    phi = hyperplane_functional(products, monomial_count(n))
    if len(h) != n + 1:
        raise ValueError(f"an h-vector of a {n}-polytope has {n + 1} entries, got {len(h)}")
    for d, (r, h_d) in enumerate(zip(catalecticant_ranks_by_bits(phi, n), h)):
        if r != h_d:
            raise ValueError(f"ideal is not the inverse system of its top degree: "
                             f"rank {r} against h_{d} = {h_d} in degree {d}")
    return phi


def top_functional_by_echelon(fs, forms) -> int:
    """phi on S_n read off the reduced echelon rows of I_n, the route of
    the package before it read phi off the forward pass: the
    product of the forms over each minimal non-face times every monomial of
    the complementary degree, reduced by pivot scans, then phi(c0) = 1 at
    the one column c0 without a pivot and phi(p) the bit c0 of the row with
    pivot p, since a reduced row has no other bit outside its pivot.

    Raises ValueError unless the products span a hyperplane of S_n.
    """
    n = fs.n
    full = tuple(forms) + (0b001, 0b010, 0b100)
    products = []
    for nonface in fs.minimal_nonfaces:
        vec = 1
        for degree, i in enumerate(nonface):
            vec = times_form(vec, degree, full[i])
        columns = product_columns(n, len(nonface))
        products += [sum(1 << columns[i][j] for i in range(vec.bit_length()) if (vec >> i) & 1)
                     for j in range(monomial_count(n - len(nonface)))]
    pivots, rows = echelon_by_scan(products)
    free = set(range(monomial_count(n))).difference(pivots)
    if len(free) != 1:
        raise ValueError(f"the ideal in degree {n} has corank {len(free)}, not 1")
    (c0,) = free
    phi = 1 << c0
    for p, row in zip(pivots, rows):
        if (row >> c0) & 1:
            phi |= 1 << p
    return phi


def scan_iso_key(q):
    """(n, hilbert, least phi o g over gl3()): the isomorphism key by a scan
    of all 168 substitutions."""
    phi = socle_functional(q)
    return q.n, q.hilbert, min(_compose(phi, rows, q.n) for rows in gl3())


def quotient_keys(quotients):
    """cohomology.iso_keys of saturated quotients, each keyed on its own n,
    hilbert and checked socle functional."""
    return [iso_keys(q.n, q.hilbert, [socle_functional(q)])[0] for q in quotients]


def annihilator(phi: int, n: int, degree: int) -> list[int]:
    """Reduced echelon basis of {f in S_d : phi(f * S_(n-d)) = 0} for a
    functional phi on S_n given as a bit vector over monomials(n).

    Row c of the pairing matrix holds phi(monomial c * monomial j) in bit j
    (exponents added), with an identity block above it; the rows left with
    an empty pairing part after elimination span the kernel.
    """
    top = {mono: c for c, mono in enumerate(monomials(n))}
    low, high = monomials(degree), monomials(n - degree)
    width = len(high)
    rows = []
    for c, a in enumerate(low):
        pairing = 0
        for j, b in enumerate(high):
            if (phi >> top[tuple(x + y for x, y in zip(a, b))]) & 1:
                pairing |= 1 << j
        rows.append(pairing | 1 << (width + c))
    kernel = [row >> width for row in echelon_by_scan(rows)[1] if not row & ((1 << width) - 1)]
    return echelon_by_scan(kernel)[1]


# ---------------------------------------------------------------------------
# the key kernels by their first routes: elimination scanning every pivot,
# orbit closure from a frontier, catalecticant rows bit by bit


def echelon_by_scan(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form with lowest-bit pivots, (pivots, rows), the
    form in which galerig cohomology --json prints each ideal
    (cohomology.annihilator_rows through gf2.complement): each row is
    reduced against every stored pivot, and its own pivot is then cleared
    from every stored row."""
    basis: dict[int, int] = {}
    for row in rows:
        for p, b in basis.items():
            if (row >> p) & 1:
                row ^= b
        if row:
            p = (row & -row).bit_length() - 1
            for q in basis:
                if (basis[q] >> p) & 1:
                    basis[q] ^= row
            basis[p] = row
    pivots = sorted(basis)
    return pivots, [basis[p] for p in pivots]


def orbit_by_closure(phi: int, n: int) -> set[int]:
    """{phi o g : g in GL(3, GF(2))}, closed from phi under the two
    generators with a frontier."""
    tables = [_pullback_columns(g, n) for g in _GENERATORS]
    orbit, frontier = {phi}, [phi]
    while frontier:
        psi = frontier.pop()
        for table in tables:
            image_psi = image(psi, table)
            if image_psi not in orbit:
                orbit.add(image_psi)
                frontier.append(image_psi)
    return orbit


@lru_cache(maxsize=None)
def product_columns(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """product_columns(n, d)[i][j]: the degree-n column of monomial i of
    degree d times monomial j of degree n - d."""
    top = {mono: c for c, mono in enumerate(monomials(n))}
    return tuple(tuple(top[tuple(a + b for a, b in zip(low, high))]
                       for high in monomials(n - degree))
                 for low in monomials(degree))


@lru_cache(maxsize=None)
def times_form_columns(degree: int, form: int) -> tuple[int, ...]:
    """The columns of multiplication by a linear form on degree d: column c
    is the sum over the variables j of form of the exponent-sum column of
    monomial c times variable j (product_columns).  The package shifts lex
    blocks instead (gf2.times_form)."""
    return tuple(sum(1 << row[j] for j in range(3) if (form >> j) & 1)
                 for row in product_columns(degree + 1, degree))


def transpose_by_sums(columns, height: int) -> tuple[int, ...]:
    """The transpose of a linear map, each entry the sum of one bit of every
    column (the package makes one pass over the set bits)."""
    return tuple(sum(((column >> r) & 1) << c for c, column in enumerate(columns))
                 for r in range(height))


def forms_from_rows_by_digits(rows) -> tuple[int, ...]:
    """galerig.charmat.forms_from_rows by validating each row's length and
    digits, then summing the digits' bits (the package looks each row up)."""
    if any(len(r) != 3 or set(r) - {"0", "1"} for r in rows):
        raise ValueError(f"block rows must be three binary digits, got {list(rows)}")
    return tuple(sum(int(ch) << j for j, ch in enumerate(r)) for r in rows)


def catalecticant_by_bits(phi: int, n: int, degree: int) -> list[int]:
    """phi's pairing in one degree d, each bit read off phi: row i has
    bit j = phi(monomial i of degree d * monomial j of degree n - d)."""
    return [sum(((phi >> c) & 1) << j for j, c in enumerate(columns))
            for columns in product_columns(n, degree)]


def catalecticants_by_table(phi: int, n: int) -> list[list[int]]:
    """Cat_0..Cat_(n//2) of phi as row lists, each row sliced off one
    table_image of phi over galerig.cohomology's stacked tables by the
    plan's shifts and mask: the rows cohomology._ranks eliminates without
    listing them."""
    tables, plan = _catalecticant_tables(n)
    stacked = table_image(phi, tables)
    return [[(stacked >> shift) & mask for shift in shifts] for shifts, mask, _ in plan]


def catalecticant_ranks_by_bits(phi: int, n: int) -> list[int]:
    """The rank of phi's bitwise pairing in every degree d = 0..n, each
    eliminated by pivot scans, none mirrored from another degree."""
    return [len(echelon_by_scan(catalecticant_by_bits(phi, n, d))[1]) for d in range(n + 1)]


def profile_by_products(phi: int, n: int) -> dict:
    """invariant_profile's record by multiplication on the bitwise
    catalecticants: ord(form) is the least e <= n with form^e pairing to
    zero against S_(n-e), or n + 1, and codim(form) the least d in 1..n-1
    at which the pairings of form times the degree-d monomials have rank
    below h_d, the rank of Cat_d."""
    pairings = [catalecticant_by_bits(phi, n, d) for d in range(n + 1)]
    h = [rank(pairing, monomial_count(n - d)) for d, pairing in enumerate(pairings)]
    codims, ords = [], []
    for form in LINEAR_FORMS:
        for d in range(1, n):
            images = [image(times_form(1 << c, d, form), pairings[d + 1])
                      for c in range(monomial_count(d))]
            if rank(images, monomial_count(n - d - 1)) < h[d]:
                codims.append(d)
                break
        else:
            raise RuntimeError("no annihilated degree found; functional is malformed")
        power, exponent = form, 1
        while exponent <= n and image(power, pairings[exponent]):
            power = times_form(power, exponent, form)
            exponent += 1
        ords.append(exponent)
    return {"forms": list(LINEAR_FORM_NAMES), "codim": codims, "ord": ords}


# ---------------------------------------------------------------------------
# pentagon Tor class by other routes

# The paper's route: labelled 5-cycles of the Petersen graph.  Vertices
# 0..4 are the outer pentagon carrying the input weights (a,b,c,d,e);
# vertices 5..9 are the inner pentagram carrying the derived labels
# (c+d-a, d+e-b, e+a-c, a+b-d, b+c-e), with vertex 5+i the spoke partner of
# i.  Reading any 5-cycle yields a weight vector with the same adjacent-sum
# multiset, and every such vector arises this way.

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
    sorted lexicographically, read off the Petersen 5-cycles.  Always
    contains the canonical input.  (The package solves the window sums,
    betti.betti_group.)

    A cycle reading with some label < 1 is skipped: a diagram must place at
    least one facet over every polygon vertex.
    """
    w = _pentagon_weights(weights)
    if any(a < 1 for a in w):
        raise ValueError(f"weights must be positive, got {w}")
    labels = petersen_labels(w)
    readings = (tuple(labels[v] for v in cyc) for cyc in five_cycles())
    return tuple(sorted({canonical_weights(seq) for seq in readings if min(seq) >= 1}))


def adjacent_sum_multiset(weights: Sequence[int]) -> tuple[int, ...]:
    """The window sums as a sorted multiset."""
    return tuple(sorted(window_sums(weights)))


def tor_equivalent(w1: Sequence[int], w2: Sequence[int]) -> bool:
    """Whether two pentagon weight vectors have isomorphic Tor-algebras,
    decided by comparing adjacent-sum multisets."""
    a, b = tuple(w1), tuple(w2)
    if len(a) != 5 or len(b) != 5:
        raise ValueError("Tor comparison is defined for pentagon weight vectors only")
    return adjacent_sum_multiset(a) == adjacent_sum_multiset(b)


def directed_label_sequences(weights) -> tuple[tuple[int, ...], ...]:
    """Label readings of every Petersen 5-cycle in both directions (24
    sequences, each taken up to rotation)."""
    labels = petersen_labels(weights)
    out = []
    for cyc in five_cycles():
        seq = tuple(labels[v] for v in cyc)
        out.append(seq)
        out.append(seq[::-1])
    return tuple(out)



def tor_class_by_linear_systems(weights) -> tuple[tuple[int, ...], ...]:
    """Solve the 120 cyclic systems x_i + x_{i+1} = s_{sigma(i)} over the
    permutations of the adjacent-sum multiset and keep the positive integer
    solutions, canonicalized."""
    sums = window_sums(weights)
    found = set()
    for s1, s2, s3, s4, s5 in permutations(sums):
        numerator = s1 - s2 + s3 - s4 + s5
        if numerator % 2:
            continue
        x1 = numerator // 2
        x2 = s1 - x1
        x3 = s2 - x2
        x4 = s3 - x3
        x5 = s4 - x4
        if x5 + x1 != s5:
            continue
        sol = (x1, x2, x3, x4, x5)
        if min(sol) >= 1:
            found.add(canonical_weights(sol))
    return tuple(sorted(found))


def compositions(total: int, parts: int):
    """All ordered tuples of positive integers of given length and sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def tor_class_by_search(weights) -> tuple[tuple[int, ...], ...]:
    """All positive 5-vectors with the same total and adjacent-sum multiset,
    canonicalized; complete by construction for any fixed total."""
    total = sum(weights)
    target = adjacent_sum_multiset(weights)
    found = {canonical_weights(w) for w in compositions(total, 5)
             if adjacent_sum_multiset(w) == target}
    return tuple(sorted(found))


def pentagon_diagrams(max_total: int):
    """Every positive pentagon weight vector with total at most max_total."""
    for total in range(5, max_total + 1):
        yield from compositions(total, 5)


def canonical_diagrams(parts: int, max_total: int) -> list[tuple[int, ...]]:
    """Canonical weight vectors of the given length with total at most
    max_total, sorted."""
    return sorted({canonical_weights(w) for total in range(parts, max_total + 1)
                   for w in compositions(total, parts)})


# ---------------------------------------------------------------------------
# sphere-product decomposition against the Betti table


def _homology_ranks(table: dict[tuple[int, int], int]) -> Counter:
    """Additive ranks of the moment-angle manifold by total degree 2j - i."""
    ranks: Counter = Counter()
    for (i, twoj), b in table.items():
        ranks[twoj - i] += b
    return ranks


def sphere_product_decomposition(diagram: GaleDiagram) -> tuple[tuple[int, int], ...]:
    """Sphere dimension pairs of the connected-sum summands of the
    moment-angle manifold, one per minimal non-face.

    A non-face of size s contributes the pair (2s-1, m+n-2s+1), normalized so
    p <= q.  The multiset is validated against the additive ranks of the
    Betti table before being returned.
    """
    m, n = diagram.m, diagram.n
    total = m + n
    pairs = []
    for s in window_sums(diagram.weights):
        p = 2 * s - 1
        q = total - p
        pairs.append((min(p, q), max(p, q)))
    pairs.sort()

    expected = Counter({0: 1, total: 1})
    for p, q in pairs:
        expected[p] += 1
        expected[q] += 1
    actual = _homology_ranks(betti_table(diagram))
    if expected != actual:
        raise RuntimeError(
            "sphere-product decomposition disagrees with the additive Betti ranks: "
            f"{dict(expected)} vs {dict(actual)}"
        )
    return tuple(pairs)


# ---------------------------------------------------------------------------
# the integral lift of a mod-2 characteristic matrix


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: each division is exact, so every entry stays an integer."""
    a = [list(row) for row in rows]
    n, sign, previous = len(a), 1, 1
    for i in range(n):
        pivot = next((r for r in range(i, n) if a[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // previous
        previous = a[i][i]
    return sign * previous


def zero_one_lift(forms: Sequence[int]) -> list[list[int]]:
    """The integer n x (n+3) matrix [I_n | B] whose entries are the 0/1 bits
    of the mod-2 matrix with leading forms forms: row i of B is facet i's
    form, bit j in column n + j."""
    n = len(forms)
    return [[int(c == i) for c in range(n)] + [(form >> j) & 1 for j in range(3)]
            for i, form in enumerate(forms)]


def vertex_minors(diagram: GaleDiagram, forms: Sequence[int]) -> list[int]:
    """The n x n minor of zero_one_lift(forms) on the facets of each vertex
    of the polytope: the complement of each facet triple whose labels hold
    the origin by origin_in_hull_exact, scanned over all C(m, 3) triples."""
    labels, m = facet_labels(diagram), diagram.m
    lift = zero_one_lift(forms)
    minors = []
    for triple in combinations(range(m), 3):
        if origin_in_hull_exact({labels[f] for f in triple}, diagram.k):
            columns = [c for c in range(m) if c not in triple]
            minors.append(integer_determinant([[row[c] for c in columns] for row in lift]))
    return minors


def facet_forms(forms: Sequence[int]) -> tuple[int, ...]:
    """The form of every facet, in facet order: the leading forms, then x,
    y, z on the three trailing facets."""
    return tuple(forms) + VARIABLES
