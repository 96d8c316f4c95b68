"""Independent oracles used by the tests.

Each oracle decides its question by a different route than the production
code: exact rational plane geometry for the origin-in-hull test, exhaustive
subset scans for minimal non-faces and f/h-vectors, a vectorized full scan
over every completion block and the column-by-column backtracker for
characteristic matrices (both on the primal [I_n | B] columns, where the
package works with the per-facet forms of the Gale dual), their orbits
under same-label facet permutations closed breadth-first under every
transposition (the package runs a union-find over adjacent ones), monomial-wise
linear substitution, the Poincare pairing, the pair-by-pair GL(3, GF(2))
substitution search for graded isomorphism (the package compares one key
per quotient), the isomorphism key by a scan of all 168 substitutions (the
package closes one orbit per key class from two generators), the inverse
system of a socle functional, adjacent-sum multisets and the
120-permutation linear systems for the pentagon Tor class (the package
reads Petersen 5-cycles), and the sphere-product decomposition of the
moment-angle manifold, checked against the Betti table's additive ranks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, pi, tan
from typing import Iterable, Sequence

import numpy as np

from galerig.betti import betti_table, window_sums
from galerig.cohomology import _compose, gl3, socle_functional, substitution_maps_ideal
from galerig.gale import GaleDiagram, canonical_weights, facet_labels, origin_in_hull
from galerig.gf2 import echelon, monomial_count, monomials, rank
from galerig.petersen import five_cycles, petersen_labels


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
# package's 0-based facet_labels order.


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


def facet_symmetry_orbits(fs, forms_list) -> set[frozenset[int]]:
    """Orbits, as sets of list indices, of the matrices under the group of
    same-label facet permutations: each closed breadth-first under every
    transposition (same_label_images)."""
    index = {forms: i for i, forms in enumerate(forms_list)}
    seen: set[int] = set()
    out = set()
    for start in range(len(forms_list)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            for image in same_label_images(fs, forms_list[frontier.pop()]):
                j = index[image]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        seen |= orbit
        out.add(frozenset(orbit))
    return out


# ---------------------------------------------------------------------------
# polynomials as frozensets of exponent tuples (a monomial belongs to the set
# iff its coefficient is 1): products, substitution and the Poincare pairing


def poly_multiply(p, q):
    """Product over GF(2); monomials appearing an even number of times cancel."""
    acc: set = set()
    for a in p:
        for b in q:
            acc ^= {tuple(x + y for x, y in zip(a, b))}
    return frozenset(acc)


def poly_to_vec(p, degree: int) -> int:
    """Bit vector of a homogeneous polynomial over monomials(3, degree)."""
    basis = monomials(3, degree)
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


def poincare_nondegenerate(q) -> bool:
    """Non-degeneracy of the multiplication pairing between complementary
    quotient degrees, valued in the one-dimensional top degree."""
    n = q.n
    if q.hilbert[n] != 1:
        return False

    def coset_columns(degree):
        pivots = set(q.ideal.components[degree][0])
        return [c for c in range(monomial_count(3, degree)) if c not in pivots]

    top_column = coset_columns(n)[0]
    for d in range(n + 1):
        left, right = coset_columns(d), coset_columns(n - d)
        if len(left) != len(right):
            return False
        rows = []
        for cl in left:
            row = 0
            for pos, cr in enumerate(right):
                product = tuple(a + b for a, b in
                                zip(monomials(3, d)[cl], monomials(3, n - d)[cr]))
                reduced = q.ideal.reduce(n, poly_to_vec({product}, n))
                if (reduced >> top_column) & 1:
                    row |= 1 << pos
            rows.append(row)
        if rank(rows) < len(rows):
            return False
    return True


# ---------------------------------------------------------------------------
# graded isomorphism pair by pair, and the inverse system


def search_graded_iso(qa, qb):
    """First substitution in gl3() order that maps the first ideal onto the
    second in every stored degree, or None: all 168 tried on the full
    ideals."""
    return next((g for g in gl3() if substitution_maps_ideal(g, qa, qb)), None)


def search_iso_witnesses(quotients_a, quotients_b):
    """search_graded_iso for every pair, rows following quotients_a."""
    return [[search_graded_iso(qa, qb) for qb in quotients_b] for qa in quotients_a]


def scan_iso_key(q):
    """(n, hilbert, least phi o g over gl3()): the isomorphism key by a scan
    of all 168 substitutions."""
    phi = socle_functional(q)
    return q.n, q.hilbert, min(_compose(phi, rows, q.n) for rows in gl3())


def annihilator(phi: int, n: int, degree: int) -> list[int]:
    """Reduced echelon basis of {f in S_d : phi(f * S_(n-d)) = 0} for a
    functional phi on S_n given as a bit vector over monomials(3, n).

    Row c of the pairing matrix holds phi(monomial c * monomial j) in bit j
    (exponents added), with an identity block above it; the rows left with
    an empty pairing part after elimination span the kernel.
    """
    top = {mono: c for c, mono in enumerate(monomials(3, n))}
    low, high = monomials(3, degree), monomials(3, n - degree)
    width = len(high)
    rows = []
    for c, a in enumerate(low):
        pairing = 0
        for j, b in enumerate(high):
            if (phi >> top[tuple(x + y for x, y in zip(a, b))]) & 1:
                pairing |= 1 << j
        rows.append(pairing | 1 << (width + c))
    kernel = [row >> width for row in echelon(rows)[1] if not row & ((1 << width) - 1)]
    return echelon(kernel)[1]


# ---------------------------------------------------------------------------
# pentagon Tor class by other routes


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
