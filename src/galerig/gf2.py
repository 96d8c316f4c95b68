"""Exact linear algebra over GF(2) on bit-packed rows, and homogeneous
polynomials in GF(2)[x,y,z].

Conventions:
    * A row (or coordinate vector) is a Python int used as a bit vector;
      bit ``c`` is column ``c``.
    * Monomials of a fixed degree are ordered lexicographically with the
      first variable largest (x > y > z); the column index of a monomial is
      its position in that ordering (``monomials(3, d)``).
    * A homogeneous polynomial is the pair (degree, vec): vec has bit c set
      iff monomial c of that degree has coefficient 1.
    * A linear form is the int 1..7 with bit j standing for variable j of
      (x, y, z); it is also its own degree-1 vec.  ``times_form`` multiplies
      a polynomial by one; the products by monomials are read off
      ``product_index`` (below).

Two kernels carry the hot loops.  ``echelon``, the package's one
elimination routine, keeps each row under its lowest set bit: a forward
pass reduces every incoming row by the row stored under its lowest bit
until that bit is new or the row is zero, and a back-substitution clears
the pivot columns through a mask (``rank``, and ``hyperplane_functional``,
which reads the functional vanishing on a hyperplane, use the forward
pass alone).  A linear map applied many times is turned into
``byte_tables``, one 256-entry table of the images of every byte per 8
columns, after the "Four Russians" tables of M4RI (Albrecht, Bard and
Hart, ACM TOMS 37, 2010), and ``table_image`` applies it with one lookup
per byte of the vector instead of one XOR per set bit.  A map with very
wide images takes 16-entry tables per 4 columns instead, to bound their
memory (``galerig.cohomology``'s stacked orbit tables).

Monomials are multiplied in one place, ``product_index``, the cached
table of the column of each product of two monomials; multiplication by a
linear form (``times_form``) and every table of ``galerig.cohomology`` are
built on it, and a dual map is the ``transpose`` of a product map.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple

Monomial = tuple[int, ...]


# ---------------------------------------------------------------------------
# bit-packed row reduction


def _forward(rows: Iterable[int]) -> dict[int, int]:
    """Forward pass of echelon: {lowest bit: row}, each row reduced by the
    row stored under its lowest set bit until that bit is new or the row is
    zero, so the stored rows have distinct lowest bits (the pivots)."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot_row = basis.get(low)
            if pivot_row is None:
                basis[low] = row
                break
            row ^= pivot_row
    return basis


def echelon(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bit-packed rows: the one GF(2)
    elimination routine of the package.

    Returns (pivots, reduced_rows) with pivot columns strictly increasing and
    zero rows dropped.  Each row's pivot is its lowest set bit, and every
    pivot column is cleared in all other rows, so a vector is reduced by one
    pass over the pivots, in any order; this form of a row space is unique.

    After the forward pass, back-substitution runs from the highest pivot
    down: a row can only hold pivot bits above its own, each such bit is
    cleared by the already reduced row of that pivot, and a reduced row
    brings in no other pivot bit, so the bits to clear are read off once
    through the mask of the pivots above.
    """
    basis = _forward(rows)
    lows = sorted(basis)
    mask = 0
    for low in reversed(lows):
        row = basis[low]
        hits = row & mask
        while hits:
            bit = hits & -hits
            row ^= basis[bit]
            hits ^= bit
        basis[low] = row
        mask |= low
    return [low.bit_length() - 1 for low in lows], [basis[low] for low in lows]


def rank(rows: Iterable[int]) -> int:
    """Rank of bit-packed rows: the forward pass of echelon alone."""
    return len(_forward(rows))


def hyperplane_functional(rows: Iterable[int], width: int) -> int:
    """The functional phi on width columns, as a bit vector, whose kernel
    the rows span, read off the forward pass of echelon.

    The forward basis leaves one column c0 without a pivot, and phi(c0) =
    1.  Then each pivot p, from the highest down, gets the parity of phi on
    its row: the row has no bit below p, and every bit above p is c0 or a
    pivot already read, so phi(row) = 0 fixes phi(p).  No back-substitution
    runs; reduced echelon rows are their own forward basis.  Raises
    ValueError unless the rows span a hyperplane.
    """
    basis = _forward(rows)
    if width - len(basis) != 1:
        raise ValueError(f"the rows span corank {width - len(basis)} in {width} columns, not 1")
    phi = ((1 << width) - 1) ^ sum(basis)  # the lowest bits are distinct powers of two
    for low in sorted(basis, reverse=True):
        if (phi & basis[low]).bit_count() & 1:
            phi |= low
    return phi


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


@lru_cache(maxsize=None)
def product_index(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """product_index(a, b)[i][j]: the column in degree a + b of monomial i
    of degree a times monomial j of degree b."""
    index = _monomial_index(3, a + b)
    return tuple(tuple(index[tuple(e + f for e, f in zip(low, high))] for high in monomials(3, b))
                 for low in monomials(3, a))


# ---------------------------------------------------------------------------
# homogeneous polynomials in x, y, z as (degree, vec)


def image(vec: int, columns) -> int:
    """Image of a vector under the linear map whose column c is columns[c]."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= columns[low.bit_length() - 1]
        vec ^= low
    return out


def byte_tables(columns, bits: int = 8) -> tuple[tuple[int, ...], ...]:
    """Lookup tables of the linear map whose column c is columns[c], one per
    bits columns (a byte by default): table k, entry b is image(b << bits *
    k, columns).  Each entry is one XOR off an earlier one: the entries
    with top bit j are the entries below 2^j plus column bits * k + j."""
    tables = []
    for start in range(0, len(columns), bits):
        table = [0]
        for column in columns[start:start + bits]:
            table += [entry ^ column for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


def table_image(vec: int, tables) -> int:
    """image(vec, columns) for tables = byte_tables(columns): one lookup per
    byte of vec."""
    out = 0
    for table in tables:
        out ^= table[vec & 255]
        vec >>= 8
    if vec:
        raise IndexError("vector has bits beyond the columns of the map")
    return out


def transpose(columns, height: int) -> tuple[int, ...]:
    """The columns of the transpose of the linear map whose column c is
    columns[c], a vector of height bits: bit c of entry r is bit r of
    columns[c]."""
    return tuple(sum(((column >> r) & 1) << c for c, column in enumerate(columns))
                 for r in range(height))


@lru_cache(maxsize=None)
def _times_columns(degree: int) -> tuple[tuple[int, ...], ...]:
    """_times_columns(d)[form][c]: the vector of form * (monomial c of degree d)
    over the degree-(d+1) monomials; variable j is monomial j of degree 1."""
    return tuple(tuple(sum(1 << row[j] for j in range(3) if (form >> j) & 1)
                       for row in product_index(degree, 1))
                 for form in range(8))


def times_form(vec: int, degree: int, form: int) -> int:
    """Product of a degree-d polynomial with a linear form, as a
    degree-(d+1) vector."""
    return image(vec, _times_columns(degree)[form])


def to_lists(degree: int, vec: int) -> list[list[int]]:
    """Exponent vectors of the monomials of a polynomial, lex descending."""
    basis = monomials(3, degree)
    return [list(basis[c]) for c in range(vec.bit_length()) if (vec >> c) & 1]


def from_lists(degree: int, rows: Iterable[Iterable[int]]) -> int:
    """Inverse of to_lists; repeated monomials cancel."""
    index = _monomial_index(3, degree)
    vec = 0
    for row in rows:
        mono = tuple(int(e) for e in row)
        if mono not in index:
            raise ValueError(f"{list(mono)} is not a monomial of degree {degree}")
        vec ^= 1 << index[mono]
    return vec


# ---------------------------------------------------------------------------
# text form ("x^3y+yz^3"; juxtaposition is product, {} around exponents allowed)

_FACTOR = re.compile(r"([A-Za-z])(?:\^(\d+|\{\d+\}))?")


def parse_poly(text: str) -> tuple[int, int]:
    """Parse the compact text notation used by the reference tables into
    (degree, vec).

    Raises ValueError on anything that is not a well-formed homogeneous sum of
    monomials, e.g. a non-numeric exponent or terms of different degrees.
    """
    s = text.replace(" ", "").replace("$", "")
    if not s:
        raise ValueError("empty polynomial text")
    index = {v: i for i, v in enumerate("xyz")}
    terms = []
    for term in s.split("+"):
        if not term:
            raise ValueError(f"empty term in {text!r}")
        exps = [0, 0, 0]
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
        terms.append(exps)
    degrees = sorted({sum(exps) for exps in terms})
    if len(degrees) != 1:
        raise ValueError(f"polynomial {text!r} is not homogeneous: degrees {degrees}")
    return degrees[0], from_lists(degrees[0], terms)


def format_poly(p: tuple[int, int]) -> str:
    terms = []
    for mono in to_lists(*p):
        parts = []
        for var, exp in zip("xyz", mono):
            if exp == 1:
                parts.append(var)
            elif exp > 1:
                parts.append(f"{var}^{exp}")
        terms.append("".join(parts) or "1")
    return "+".join(terms) or "0"


# ---------------------------------------------------------------------------
# graded subspaces


class GradedSubspace(NamedTuple):
    """Per-degree reduced echelon bases of a graded subspace of GF(2)[x,y,z].

    ``components[d]`` is a pair (pivots, rows) over the degree-d monomial
    basis; rows are in reduced echelon form, so equal subspaces have equal
    components.
    """

    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @classmethod
    def from_spans(cls, spans: Iterable[Iterable[int]]) -> "GradedSubspace":
        """Build from per-degree spanning vectors (index = degree)."""
        comps = []
        for vecs in spans:
            pivots, rows = echelon(vecs)
            comps.append((tuple(pivots), tuple(rows)))
        return cls(tuple(comps))

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

    def contains(self, degree: int, vec: int) -> bool:
        return self.reduce(degree, vec) == 0
