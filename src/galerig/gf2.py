"""Exact linear algebra over GF(2) on bit-packed rows, plus graded monomial
bookkeeping for polynomials with coefficients in the two-element field.

Conventions:
    * A row (or coordinate vector) is a Python int used as a bit vector;
      bit ``c`` is column ``c``.
    * A polynomial is a frozenset of exponent tuples: a monomial belongs to
      the set iff its coefficient is 1.
    * Monomials of a fixed degree are ordered graded-lexicographically with
      the first variable largest (x > y > z); the column index of a monomial
      is its position in that ordering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable

Monomial = tuple[int, ...]
Poly = frozenset


# ---------------------------------------------------------------------------
# bit-packed row reduction


def echelon(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows: the one GF(2)
    elimination routine of the package.

    Returns (pivots, reduced_rows) with pivot columns strictly increasing and
    zero rows dropped.  Every pivot column is cleared in all other rows, so a
    vector is reduced by one pass over the pivots, in any order.
    """
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


def rank(rows: Iterable[int]) -> int:
    """Rank of bit-packed rows."""
    return len(echelon(rows)[1])


def reduce_vector(vec: int, pivots: Iterable[int], rows: Iterable[int]) -> int:
    """Reduce a bit vector against an echelon basis (pivots ascending)."""
    for p, r in zip(pivots, rows):
        if (vec >> p) & 1:
            vec ^= r
    return vec


# ---------------------------------------------------------------------------
# graded monomial bookkeeping


def monomial_count(nvars: int, degree: int) -> int:
    """Number of degree-d monomials in v variables: C(d+v-1, v-1)."""
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    return comb(degree + nvars - 1, nvars - 1)


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """All degree-d exponent tuples in graded-lex order, first variable largest."""
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    if nvars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(nvars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


# ---------------------------------------------------------------------------
# polynomial arithmetic


def poly(monos: Iterable[Monomial]) -> Poly:
    """Build a polynomial from monomials, cancelling pairs (coefficients mod 2)."""
    acc: set = set()
    for m in monos:
        acc ^= {tuple(m)}
    return frozenset(acc)


def poly_multiply(p: Poly, q: Poly) -> Poly:
    """Product over GF(2); monomials appearing an even number of times cancel."""
    acc: set = set()
    for a in p:
        for b in q:
            acc ^= {tuple(x + y for x, y in zip(a, b))}
    return frozenset(acc)


def poly_shift(p: Poly, mono: Monomial) -> Poly:
    """Multiply by a single monomial."""
    return frozenset(tuple(x + y for x, y in zip(a, mono)) for a in p)


def homogeneous_degree(p: Poly) -> int:
    """Degree of a nonzero homogeneous polynomial; error otherwise."""
    degrees = {sum(m) for m in p}
    if len(degrees) != 1:
        raise ValueError(f"polynomial is not homogeneous: {sorted(degrees)}")
    return degrees.pop()


def poly_to_vec(p: Poly, nvars: int, degree: int) -> int:
    """Coordinate bit vector of a homogeneous polynomial in the degree basis."""
    index = _monomial_index(nvars, degree)
    vec = 0
    for m in p:
        vec |= 1 << index[m]
    return vec


def vec_to_poly(vec: int, nvars: int, degree: int) -> Poly:
    basis = monomials(nvars, degree)
    return frozenset(basis[c] for c in range(vec.bit_length()) if (vec >> c) & 1)


def _mono_sort_key(m: Monomial):
    return (sum(m), m)


def poly_to_lists(p: Poly) -> list[list[int]]:
    """Serialize as exponent vectors, highest degree first, then lex descending."""
    return [list(m) for m in sorted(p, key=_mono_sort_key, reverse=True)]


def poly_from_lists(rows: Iterable[Iterable[int]]) -> Poly:
    return poly(tuple(int(e) for e in row) for row in rows)


# ---------------------------------------------------------------------------
# text form ("x^3y+yz^3"; juxtaposition is product, {} around exponents allowed)

_FACTOR = re.compile(r"([A-Za-z])(?:\^(\d+|\{\d+\}))?")


def parse_poly(text: str, varnames: str = "xyz") -> Poly:
    """Parse the compact text notation used by the reference tables.

    Raises ValueError on anything that is not a well-formed sum of monomials,
    e.g. a non-numeric exponent.
    """
    s = text.replace(" ", "").replace("$", "")
    if not s:
        raise ValueError("empty polynomial text")
    index = {v: i for i, v in enumerate(varnames)}
    acc: set = set()
    for term in s.split("+"):
        if not term:
            raise ValueError(f"empty term in {text!r}")
        exps = [0] * len(varnames)
        pos = 0
        while pos < len(term):
            m = _FACTOR.match(term, pos)
            if not m:
                raise ValueError(f"cannot parse {term!r} at position {pos}")
            var = m.group(1)
            if var not in index:
                raise ValueError(f"unknown variable {var!r} in {term!r}")
            raw = m.group(2)
            exps[index[var]] += int(raw.strip("{}")) if raw else 1
            pos = m.end()
        acc ^= {tuple(exps)}
    return frozenset(acc)


def format_poly(p: Poly, varnames: str = "xyz") -> str:
    if not p:
        return "0"
    terms = []
    for m in sorted(p, key=_mono_sort_key, reverse=True):
        if not any(m):
            terms.append("1")
            continue
        parts = []
        for var, exp in zip(varnames, m):
            if exp == 1:
                parts.append(var)
            elif exp > 1:
                parts.append(f"{var}^{exp}")
        terms.append("".join(parts))
    return "+".join(terms)


# ---------------------------------------------------------------------------
# graded subspaces


@dataclass(frozen=True)
class GradedSubspace:
    """Per-degree reduced echelon bases of a graded subspace of GF(2)[v_1..v_n].

    ``components[d]`` is a pair (pivots, rows) over the degree-d monomial
    basis; rows are in reduced echelon form, so equal subspaces have equal
    components.
    """

    nvars: int
    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @classmethod
    def from_spans(cls, nvars: int, spans: Iterable[Iterable[Poly]]) -> "GradedSubspace":
        """Build from per-degree spanning polynomials (index = degree)."""
        comps = []
        for degree, polys in enumerate(spans):
            vecs = [poly_to_vec(p, nvars, degree) for p in polys if p]
            pivots, rows = echelon(vecs)
            comps.append((tuple(pivots), tuple(rows)))
        return cls(nvars, tuple(comps))

    @property
    def max_degree(self) -> int:
        return len(self.components) - 1

    def _component(self, degree: int):
        if degree < 0 or degree > self.max_degree:
            raise ValueError(f"degree {degree} outside the stored range 0..{self.max_degree}")
        return self.components[degree]

    def dimension(self, degree: int) -> int:
        return len(self._component(degree)[1])

    def rows(self, degree: int) -> tuple[int, ...]:
        return self._component(degree)[1]

    def reduce(self, degree: int, vec: int) -> int:
        pivots, rows = self._component(degree)
        return reduce_vector(vec, pivots, rows)

    def contains_vec(self, degree: int, vec: int) -> bool:
        return self.reduce(degree, vec) == 0

    def contains(self, p: Poly) -> bool:
        if not p:
            return True
        degree = homogeneous_degree(p)
        return self.contains_vec(degree, poly_to_vec(p, self.nvars, degree))


def subspace_equal(s1: GradedSubspace, s2: GradedSubspace) -> bool:
    """Equal dimensions and mutual containment in every stored degree."""
    if s1.nvars != s2.nvars or s1.max_degree != s2.max_degree:
        return False
    for d in range(s1.max_degree + 1):
        if s1.dimension(d) != s2.dimension(d):
            return False
        if any(not s2.contains_vec(d, row) for row in s1.rows(d)):
            return False
        if any(not s1.contains_vec(d, row) for row in s2.rows(d)):
            return False
    return True
