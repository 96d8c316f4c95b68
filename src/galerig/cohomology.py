"""GF(2) cohomology quotients of quasitoric manifolds over polytopes with
n+3 facets, and exhaustive graded-isomorphism testing between them.

Given a characteristic matrix as one linear form in x, y, z per facet (see
galerig.charmat), the quotient is GF(2)[x,y,z] modulo the ideal generated by
the products of the forms over each minimal non-face.  The quotient vanishes
above degree n, so ideals are stored degreewise up to degree n+1, where the
component must be the full monomial space.

Two quotients are compared by running every invertible degree-one
substitution (the 168 elements of GL(3, GF(2))) and checking whether it maps
one ideal onto the other in every degree; both algebras are generated in
degree one, so this search is exhaustive.  pairwise_iso_matrix runs it once
for each pair, in one process.  The codimension and order invariants of the
seven nonzero linear forms are computed for reporting and cross-checks; the
isomorphism verdict never depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .charmat import VARIABLES, is_characteristic
from .gale import FaceStructure
from .gf2 import (
    GradedSubspace,
    Poly,
    homogeneous_degree,
    monomial_count,
    monomials,
    poly_from_lists,
    poly_multiply,
    poly_shift,
    poly_to_lists,
    poly_to_vec,
    rank,
    subspace_equal,
    vec_to_poly,
)

X: Poly = frozenset({(1, 0, 0)})
Y: Poly = frozenset({(0, 1, 0)})
Z: Poly = frozenset({(0, 0, 1)})
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

LINEAR_FORM_NAMES = ("x", "y", "z", "x+y", "x+z", "y+z", "x+y+z")
LINEAR_FORMS: tuple[Poly, ...] = (X, Y, Z, X | Y, X | Z, Y | Z, X | Y | Z)


@dataclass
class GradedQuotient:
    """Quotient of GF(2)[x,y,z] by a graded ideal stored degreewise.

    hilbert[d] is the quotient dimension in degree d (0 <= d <= n) and equals
    the h-vector of the source polytope; the stored generators are the
    substituted minimal non-face monomials when the quotient was built from a
    characteristic matrix.
    """

    n: int
    ideal: GradedSubspace
    hilbert: tuple[int, ...]
    generators: tuple[Poly, ...] | None = None

    def __eq__(self, other):
        if not isinstance(other, GradedQuotient):
            return NotImplemented
        return (self.n == other.n and self.hilbert == other.hilbert
                and self.ideal == other.ideal)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "hilbert": list(self.hilbert),
            "ideal": {
                str(d): [poly_to_lists(vec_poly) for vec_poly in self._basis_polys(d)]
                for d in range(self.ideal.max_degree + 1)
            },
        }

    def _basis_polys(self, degree: int):
        return [vec_to_poly(row, 3, degree) for row in self.ideal.rows(degree)]

    @classmethod
    def from_json(cls, data: dict) -> "GradedQuotient":
        n = data["n"]
        spans: list[list[Poly]] = [[] for _ in range(n + 2)]
        for key, polys in data["ideal"].items():
            d = int(key)
            spans[d] = [poly_from_lists(rows) for rows in polys]
        quotient = cls(n=n, ideal=GradedSubspace.from_spans(3, spans),
                       hilbert=tuple(data["hilbert"]))
        _validate_quotient(quotient)
        return quotient


def _validate_quotient(q: GradedQuotient):
    top = q.n + 1
    if q.ideal.dimension(top) != monomial_count(3, top):
        raise ValueError(f"ideal is not full in degree {top}")
    expected = tuple(monomial_count(3, d) - q.ideal.dimension(d) for d in range(q.n + 1))
    if q.hilbert != expected:
        raise ValueError("stored quotient dimensions disagree with the ideal")


def _form_poly(form: int) -> Poly:
    """The linear form with bit j standing for variable j of (x, y, z)."""
    return frozenset(_UNITS[j] for j in range(3) if (form >> j) & 1)


def quotient_presentation(fs: FaceStructure, forms: Sequence[int]) -> GradedQuotient:
    """Cohomology quotient of the quasitoric manifold given by a
    characteristic matrix over the face structure.

    Args:
        fs: face structure with m - n = 3 and normalized facet order.
        forms: the matrix as the linear forms of facets 1..n.

    Each generator is the product of the facet forms over a minimal
    non-face, the last three facets carrying x, y, z; ideal components are
    saturated degree by degree.
    """
    if fs.m - fs.n != 3:
        raise ValueError("quotient presentation requires m - n = 3")
    if not is_characteristic(forms, fs):
        raise ValueError("matrix is not characteristic over this face structure")

    n = fs.n
    polys = [_form_poly(f) for f in tuple(forms) + VARIABLES]
    generators = []
    for nonface in fs.minimal_nonfaces:
        prod: Poly = frozenset({(0, 0, 0)})
        for i in sorted(nonface):
            prod = poly_multiply(prod, polys[i - 1])
        generators.append(prod)

    ideal = _saturated_ideal(generators, n + 1)
    hilbert = tuple(monomial_count(3, d) - ideal.dimension(d) for d in range(n + 1))
    quotient = GradedQuotient(n=n, ideal=ideal, hilbert=hilbert,
                              generators=tuple(generators))
    _validate_quotient(quotient)
    return quotient


def _saturated_ideal(generators: Iterable[Poly], top: int) -> GradedSubspace:
    """Graded ideal spanned by homogeneous generators, degreewise up to top."""
    spans: list[list[Poly]] = [[] for _ in range(top + 1)]
    for g in generators:
        if not g:
            continue
        dg = homogeneous_degree(g)  # raises on non-homogeneous input
        if dg > top:
            raise ValueError(f"generator degree {dg} above the stored range")
        for d in range(dg, top + 1):
            for mono in monomials(3, d - dg):
                spans[d].append(poly_shift(g, mono))
    return GradedSubspace.from_spans(3, spans)


def ideal_equal(generators: Iterable[Poly], quotient: GradedQuotient) -> bool:
    """Whether the graded ideal spanned by the generators (saturated
    degreewise up to degree n+1) equals the quotient's ideal."""
    return subspace_equal(_saturated_ideal(generators, quotient.n + 1), quotient.ideal)


# ---------------------------------------------------------------------------
# quotient coordinates


def _coset_columns(q: GradedQuotient, degree: int) -> tuple[int, ...]:
    """Monomial columns representing a basis of the quotient in one degree
    (the non-pivot columns of the ideal's echelon basis)."""
    pivots = set(q.ideal.components[degree][0])
    return tuple(c for c in range(monomial_count(3, degree)) if c not in pivots)


def _coset_coords(q: GradedQuotient, degree: int, vec: int) -> int:
    """Coordinates of a reduced vector over the coset basis."""
    reduced = q.ideal.reduce(degree, vec)
    coords = 0
    for pos, c in enumerate(_coset_columns(q, degree)):
        if (reduced >> c) & 1:
            coords |= 1 << pos
    return coords


def _mult_matrix(q: GradedQuotient, gamma: Poly, degree: int) -> list[int]:
    """Multiplication by a linear form as a map from quotient degree d to
    degree d+1, rows indexed by the degree-d coset basis."""
    basis = monomials(3, degree)
    rows = []
    for c in _coset_columns(q, degree):
        image = poly_shift(gamma, basis[c])
        vec = poly_to_vec(image, 3, degree + 1)
        rows.append(_coset_coords(q, degree + 1, vec))
    return rows


def codim(gamma: Poly, q: GradedQuotient) -> int:
    """Least degree d >= 1 at which multiplication by the linear form has a
    nonzero kernel on the quotient, i.e. some class delta != 0 of degree d
    satisfies gamma*delta = 0."""
    gamma = frozenset(gamma)
    if not gamma:
        raise ValueError("the zero form has no codimension")
    for d in range(1, q.n):
        rows = _mult_matrix(q, gamma, d)
        if rank(rows) < len(rows):
            return d
    # the map from degree n-1 (dim 3) to degree n (dim 1) always has a kernel
    raise RuntimeError("no annihilated degree found; quotient is malformed")


def codim_via_annihilator(gamma: Poly, q: GradedQuotient) -> int:
    """Independent recomputation of codim: the least d such that the space
    {delta of degree d : gamma*delta in ideal} exceeds the ideal's own
    degree-d component."""
    gamma = frozenset(gamma)
    if not gamma:
        raise ValueError("the zero form has no codimension")
    for d in range(1, q.n):
        rows = []
        for mono in monomials(3, d):
            image = poly_multiply(frozenset({mono}), gamma)
            rows.append(q.ideal.reduce(d + 1, poly_to_vec(image, 3, d + 1)))
        kernel_dim = len(rows) - rank(rows)
        if kernel_dim > q.ideal.dimension(d):
            return d
    raise RuntimeError("no annihilated degree found; quotient is malformed")


def order(gamma: Poly, q: GradedQuotient) -> int:
    """Least power of the linear form lying in the ideal; at most n+1 since
    every degree-(n+1) polynomial does."""
    gamma = frozenset(gamma)
    if not gamma:
        raise ValueError("the zero form has no order")
    power: Poly = gamma
    for exponent in range(1, q.n + 2):
        if q.ideal.contains(power):
            return exponent
        power = poly_multiply(power, gamma)
    raise RuntimeError("top-degree component is not full; quotient is malformed")


def order_via_quotient_maps(gamma: Poly, q: GradedQuotient) -> int:
    """Independent recomputation of order by iterating the multiplication
    maps on quotient coordinates instead of reducing explicit powers."""
    gamma = frozenset(gamma)
    if not gamma:
        raise ValueError("the zero form has no order")
    coords = _coset_coords(q, 1, poly_to_vec(gamma, 3, 1))
    if coords == 0:
        return 1
    for exponent in range(2, q.n + 2):
        rows = _mult_matrix(q, gamma, exponent - 1)
        image = 0
        for pos, row in enumerate(rows):
            if (coords >> pos) & 1:
                image ^= row
        coords = image
        if coords == 0:
            return exponent
    raise RuntimeError("top-degree component is not full; quotient is malformed")


@dataclass(frozen=True)
class InvariantProfile:
    """codim and order of the seven nonzero linear forms, in the fixed
    column order x, y, z, x+y, x+z, y+z, x+y+z."""

    codims: tuple[int, ...]
    orders: tuple[int, ...]

    def to_json(self) -> dict:
        return {"forms": list(LINEAR_FORM_NAMES),
                "codim": list(self.codims), "ord": list(self.orders)}


def invariant_profile(q: GradedQuotient) -> InvariantProfile:
    return InvariantProfile(
        codims=tuple(codim(g, q) for g in LINEAR_FORMS),
        orders=tuple(order(g, q) for g in LINEAR_FORMS),
    )


# ---------------------------------------------------------------------------
# exhaustive degree-one isomorphism search


@lru_cache(maxsize=None)
def gl3() -> tuple[tuple[int, int, int], ...]:
    """All 168 invertible 3x3 GF(2) matrices as row triples (bit j = variable
    j), in ascending integer order."""
    out = []
    for r0 in range(1, 8):
        for r1 in range(1, 8):
            if r1 == r0:
                continue
            spanned = {r0, r1, r0 ^ r1}
            for r2 in range(1, 8):
                if r2 not in spanned:
                    out.append((r0, r1, r2))
    return tuple(out)


def substitution_images(rows: tuple[int, int, int]) -> tuple[Poly, Poly, Poly]:
    """Linear forms substituted for x, y, z under a GL(3) row triple."""
    return tuple(_form_poly(r) for r in rows)


@lru_cache(maxsize=None)
def _subst_matrix(rows: tuple[int, int, int], degree: int) -> tuple[int, ...]:
    """Image vector of each degree-d basis monomial under the substitution."""
    images = substitution_images(rows)
    out = []
    for mono in monomials(3, degree):
        acc: Poly = frozenset({(0, 0, 0)})
        for var, exp in enumerate(mono):
            for _ in range(exp):
                acc = poly_multiply(acc, images[var])
        out.append(poly_to_vec(acc, 3, degree))
    return tuple(out)


def substitution_maps_ideal(rows: tuple[int, int, int],
                            qa: GradedQuotient, qb: GradedQuotient) -> bool:
    """Whether the substitution carries the first ideal onto second in every
    stored degree."""
    if qa.n != qb.n or qa.hilbert != qb.hilbert:
        return False
    # Equal Hilbert tuples and a full degree n+1 give equal dimensions: containment is equality.
    for d in range(qa.ideal.max_degree + 1):
        table = _subst_matrix(rows, d)
        for row in qa.ideal.rows(d):
            image = 0
            rest = row
            while rest:
                low = rest & -rest
                image ^= table[low.bit_length() - 1]
                rest ^= low
            if qb.ideal.reduce(d, image):
                return False
    return True


def find_graded_iso(qa: GradedQuotient, qb: GradedQuotient):
    """First invertible degree-one substitution mapping one ideal onto the
    other, or None.

    Both algebras are generated in degree one, so every graded isomorphism
    restricts to an invertible map on the three-dimensional linear part and
    the 168-element search is exhaustive.
    """
    if qa.n != qb.n or qa.hilbert != qb.hilbert:
        return None
    for rows in gl3():
        if substitution_maps_ideal(rows, qa, qb):
            return rows
    return None


def pairwise_iso_matrix(quotients_a: Sequence[GradedQuotient],
                        quotients_b: Sequence[GradedQuotient]) -> list[list[bool]]:
    """Boolean matrix of graded-isomorphism verdicts for all pairs, rows
    following quotients_a and columns quotients_b; each pair is searched
    once, in order."""
    return [[find_graded_iso(qa, qb) is not None for qb in quotients_b]
            for qa in quotients_a]
