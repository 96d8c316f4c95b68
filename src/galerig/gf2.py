"""Exact linear algebra over GF(2) on bit-packed rows, and homogeneous
polynomials in GF(2)[x,y,z].

Conventions:
    * A row (or coordinate vector) is a Python int used as a bit vector;
      bit ``c`` is column ``c``.
    * Monomials of a fixed degree are ordered lexicographically with the
      first variable largest (x > y > z); the column index of a monomial is
      its position in that ordering (``monomials(d)``).
    * A homogeneous polynomial is the pair (degree, vec): vec has bit c set
      iff monomial c of that degree has coefficient 1.
    * A linear form is the int 1..7 with bit j standing for variable j of
      (x, y, z); it is also its own degree-1 vec.  ``times_form`` multiplies
      a polynomial by one (``times_variables`` by x, y and z at once); the
      products by monomials are read off ``product_index`` (below).

Two kernels carry the hot loops.  Row reduction is one forward pass,
``_forward``: it keeps each row under its highest set bit, in a list
indexed by the row's ``bit_length`` and sized from the row width, and
reduces every incoming row by the row stored there until that bit is new
or the row is zero; it can continue from an earlier pass's list.  Its
loop is run inline in one other place, ``galerig.cohomology._ranks``,
which slices the rows of each catalecticant off one int as it counts.
``rank`` counts its pivots, ``complement`` reads the functionals
vanishing on the rows off it, one upward from each column without a
pivot (``hyperplane_functional`` is its corank-1 case), and ``echelon``
back-substitutes over it into the reduced rows under highest-bit pivots,
ascending: the unique form that ``GradedSubspace`` stores and compares.
``complement``'s vectors come out reduced under lowest-bit pivots,
ascending, the form in which ``galerig cohomology --json`` prints each
ideal (the goldens pin it).  A linear map applied many times is turned
into ``byte_tables``, one 256-entry table of the images of every byte per
8 columns, after the "Four Russians" tables of M4RI (Albrecht, Bard and
Hart, ACM TOMS 37, 2010), and ``table_image`` applies it with one lookup
per byte of the vector instead of one XOR per set bit.
A map with very wide images takes 16-entry tables per 4 columns instead,
to bound their memory (``galerig.cohomology``'s stacked orbit tables).

Monomials are multiplied by index arithmetic on the lex order: the column
of x^a y^b z^c is t(t+1)/2 + c with t = b + c, whatever its degree
(``_lex_coordinates``), and (t, c) add under products.  So
``product_index``, the cached table of the column of each product of two
monomials, is sums of coordinates, and multiplication by a variable moves
whole blocks of columns: x keeps every column, and y shifts the block of
x-degree a in degree d, its t + 1 columns from t(t+1)/2 on, left by
t + 1 = d + 1 - a, and z by one more (``times_variables``, through one
(mask, shift) list per degree).  Every table of ``galerig.cohomology`` is
built on these two, and a dual map is the ``transpose`` of a product map.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, NamedTuple

Monomial = tuple[int, int, int]


# ---------------------------------------------------------------------------
# bit-packed row reduction


def _forward(rows: Iterable[int], width: int, start: list[int] | None = None) -> list[int]:
    """The one forward pass, of rank, complement and echelon:
    entry b is the stored row whose highest set bit is column b - 1 (its
    bit_length is b), or 0, for b = 0..width.  Each incoming row is reduced
    by the row stored under its highest bit until that bit is new or the
    row is zero, so the stored rows have distinct highest bits (the
    pivots).  Given start, an earlier pass's list on the same width, the
    pass continues from a copy of it: the rows of both calls, eliminated
    as one pass.  Raises ValueError for a row with a bit at or above
    width, whose index the list does not hold."""
    basis = [0] * (width + 1) if start is None else start.copy()
    try:
        for row in rows:
            while row:
                top = row.bit_length()
                pivot_row = basis[top]
                if not pivot_row:
                    basis[top] = row
                    break
                row ^= pivot_row
    except IndexError:
        raise ValueError(f"a row has a bit at or above column {width}") from None
    return basis


def echelon(rows: Iterable[int], width: int) -> list[int]:
    """Reduced row echelon form of bit-packed rows on width columns: the
    forward pass (_forward), then one back-substitution over its rows.

    Returns the reduced rows, zero rows dropped, pivots strictly
    increasing.  Each row's pivot is its highest set bit, and every pivot
    column is cleared in all other rows, so a vector is reduced by one pass
    over the rows, in any order; this form of a row space is unique.

    Back-substitution runs from the lowest pivot up: a stored row can hold
    only pivot bits below its own, each is cleared by the already reduced
    row of that pivot, and a reduced row brings in no other pivot bit, so
    the bits to clear are read off once through the mask of the pivots
    below.  Raises ValueError for a row with a bit at or above width.
    """
    basis = _forward(rows, width)
    reduced, mask = [], 0
    for top, row in enumerate(basis):
        if row:
            hits = row & mask
            while hits:
                bit = hits.bit_length()
                row ^= basis[bit]
                hits ^= 1 << (bit - 1)
            basis[top] = row
            reduced.append(row)
            mask |= 1 << (top - 1)
    return reduced


def rank(rows: Iterable[int], width: int) -> int:
    """Rank of bit-packed rows on width columns: the count of pivots of the
    highest-bit forward pass (_forward).  Raises ValueError for a row with
    a bit at or above width."""
    return width + 1 - _forward(rows, width).count(0)


def complement(rows: Iterable[int], width: int, start: list[int] | None = None) -> list[int]:
    """The functionals on width columns, as bit vectors, that vanish on
    every row, read off the highest-bit forward pass (_forward), which
    continues from start if given: then they vanish on start's rows too.

    One vector phi per column c0 without a pivot, ascending: phi(c0) = 1,
    and phi is 0 on every other column without a pivot.  Each pivot p,
    from the lowest up, gets the parity of phi on the rest of its row: the
    row has no bit above p, and every bit below p is a column without a
    pivot or a pivot already read, so phi(row) = 0 fixes phi(p).  Below c0
    that parity is 0, so the read starts above c0.  No back-substitution
    runs.  So each vector's lowest bit is its own c0, where every other
    vector is 0: the vectors are the reduced row echelon form of the
    complement under lowest-bit pivots, the form that galerig cohomology
    --json prints.  Raises ValueError for a row with a bit at or above
    width.
    """
    basis = _forward(rows, width, start)
    vectors, free = [], 0
    for _ in range(basis.count(0) - 1):  # entry 0 holds no row
        free = basis.index(0, free + 1)
        phi = 1 << (free - 1)
        for top in range(free + 1, width + 1):
            if (phi & basis[top]).bit_count() & 1:
                phi |= 1 << (top - 1)
        vectors.append(phi)
    return vectors


def hyperplane_functional(rows: Iterable[int], width: int,
                          start: list[int] | None = None) -> int:
    """The functional phi on width columns, as a bit vector, whose kernel
    the rows span (and those of start's pass, if given): the complement
    of corank 1.  Raises ValueError unless the rows span a hyperplane and
    have no bit at or above width."""
    vectors = complement(rows, width, start)
    if len(vectors) != 1:
        raise ValueError(f"the rows span corank {len(vectors)} in {width} columns, not 1")
    return vectors[0]


# ---------------------------------------------------------------------------
# graded monomial bookkeeping


def monomial_count(degree: int) -> int:
    """Number of degree-d monomials in x, y, z: (d + 1)(d + 2) / 2."""
    if degree < 0:
        raise ValueError("need degree >= 0")
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[Monomial, ...]:
    """All degree-d exponent triples in graded-lex order, x largest."""
    if degree < 0:
        raise ValueError("need degree >= 0")
    return tuple((a, b, degree - a - b)
                 for a in range(degree, -1, -1) for b in range(degree - a, -1, -1))


@lru_cache(maxsize=None)
def _monomial_index(degree: int) -> dict:
    return {m: i for i, m in enumerate(monomials(degree))}


@lru_cache(maxsize=None)
def _lex_coordinates(degree: int) -> tuple[tuple[int, int], ...]:
    """(t, c) = (b + c, c) of each monomial x^a y^b z^c of degree d, in
    lex order.  The monomials before it are the t(t+1)/2 of x-degree above
    a, then those of x-degree a with a greater y-exponent, so its column is
    t(t+1)/2 + c, whatever its degree."""
    return tuple((t, c) for t in range(degree + 1) for c in range(t + 1))


@lru_cache(maxsize=None)
def product_index(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """product_index(a, b)[i][j]: the column in degree a + b of monomial i
    of degree a times monomial j of degree b, by the lex coordinates
    (_lex_coordinates), which add under products."""
    high = _lex_coordinates(b)
    return tuple(tuple((t + u) * (t + u + 1) // 2 + c + e for u, e in high)
                 for t, c in _lex_coordinates(a))


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
    columns[c].  One pass over the set bits of the columns; a bit at or
    above height is dropped."""
    rows = [0] * height
    for c, column in enumerate(columns):
        bit = 1 << c
        column &= (1 << height) - 1
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= bit
            column ^= low
    return tuple(rows)


@lru_cache(maxsize=None)
def _shift_blocks(degree: int) -> tuple[tuple[int, int], ...]:
    """(mask, shift) per x-degree block of the degree-d columns, a = d - t
    for t = 0..d: the t + 1 columns t(t+1)/2 .. t(t+1)/2 + t of the
    monomials x^a y^b z^c, b + c = t, and t + 1, the distance that y moves
    them to their products in degree d + 1 (_lex_coordinates)."""
    return tuple((((1 << (t + 1)) - 1) << (t * (t + 1) // 2), t + 1) for t in range(degree + 1))


def times_variables(vec: int, degree: int) -> tuple[int, int, int]:
    """x, y and z times a degree-d polynomial, as degree-(d+1) vectors,
    read off the lex order (_lex_coordinates): x keeps every column, y
    shifts each x-degree block a left by d + 1 - a (_shift_blocks), and z
    by one more, so z * f is y * f shifted by one."""
    by_y = 0
    for mask, shift in _shift_blocks(degree):
        by_y |= (vec & mask) << shift
    return vec, by_y, by_y << 1


def times_form(vec: int, degree: int, form: int) -> int:
    """Product of a degree-d polynomial with a linear form, as a
    degree-(d+1) vector: the sum of the products by its variables
    (times_variables)."""
    by_x, by_y, by_z = times_variables(vec, degree)
    return (by_x if form & 1 else 0) ^ (by_y if form & 2 else 0) ^ (by_z if form & 4 else 0)


def to_lists(degree: int, vec: int) -> list[list[int]]:
    """Exponent vectors of the monomials of a polynomial, lex descending."""
    basis = monomials(degree)
    return [list(basis[c]) for c in range(vec.bit_length()) if (vec >> c) & 1]


def from_lists(degree: int, rows: Iterable[Iterable[int]]) -> int:
    """Inverse of to_lists; repeated monomials cancel."""
    index = _monomial_index(degree)
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
    (degree, vec).  The term 1 is the degree-0 monomial, as format_poly
    writes it.

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
        pos = 1 if term == "1" else 0
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

    ``components[d]`` is echelon's form of the degree-d component over the
    degree-d monomial basis: its reduced rows, each under its highest set
    bit, pivots ascending, so equal subspaces have equal components.
    """

    components: tuple[tuple[int, ...], ...]

    @classmethod
    def from_spans(cls, spans: Iterable[Iterable[int]]) -> "GradedSubspace":
        """Build from per-degree spanning vectors (index = degree), each
        degree reduced by echelon.  No command calls it:
        galerig.cohomology._saturated_ideal builds the class straight from
        the rows it has already reduced.  It stays for the tests, which
        build subspaces from spans, and for the benchmark tracer, which
        wraps it."""
        return cls(tuple(tuple(echelon(vecs, monomial_count(d)))
                         for d, vecs in enumerate(spans)))

    @property
    def max_degree(self) -> int:
        return len(self.components) - 1

    def rows(self, degree: int) -> tuple[int, ...]:
        if degree < 0 or degree > self.max_degree:
            raise ValueError(f"degree {degree} outside the stored range 0..{self.max_degree}")
        return self.components[degree]

    def dimension(self, degree: int) -> int:
        return len(self.rows(degree))

    def reduce(self, degree: int, vec: int) -> int:
        """The representative of vec modulo the degree-d component that
        holds no pivot: each row whose pivot, read off its bit_length, is
        set in vec is added to it."""
        for row in self.rows(degree):
            if (vec >> (row.bit_length() - 1)) & 1:
                vec ^= row
        return vec

    def contains(self, degree: int, vec: int) -> bool:
        return self.reduce(degree, vec) == 0
