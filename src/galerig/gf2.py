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
      a polynomial by one; the products by monomials are read off
      ``product_index`` (below).

Two kernels carry the hot loops.  Row reduction is one forward pass,
``_forward``: it keeps each row under its highest set bit, in a list
indexed by the row's ``bit_length`` and sized from the row width, and
reduces every incoming row by the row stored there until that bit is new
or the row is zero.  ``rank`` counts its pivots, ``hyperplane_functional``
reads the functional vanishing on a hyperplane off it upward from the one
column without a pivot, and ``echelon`` back-substitutes over it into the
reduced rows under highest-bit pivots, ascending: the unique form that
``GradedSubspace`` stores and compares.  ``galerig cohomology --json``
prints the reduced rows under lowest-bit pivots instead (the goldens pin
them); ``lowest_pivot_rows`` is echelon on the rows with their columns
reversed, reversed back, so only the printed form pays for the other
order.  A linear map applied many times is turned into ``byte_tables``,
one 256-entry table of the images of every byte per 8 columns, after the
"Four Russians" tables of M4RI (Albrecht, Bard and Hart, ACM TOMS 37,
2010), and ``table_image`` applies it with one lookup per byte of the
vector instead of one XOR per set bit.
A map with very wide images takes 16-entry tables per 4 columns instead,
to bound their memory (``galerig.cohomology``'s stacked orbit tables).

Monomials are multiplied in one place, ``product_index``, the cached
table of the column of each product of two monomials; multiplication by a
linear form (``times_form``) and every table of ``galerig.cohomology`` are
built on it, and a dual map is the ``transpose`` of a product map.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, NamedTuple

Monomial = tuple[int, int, int]


# ---------------------------------------------------------------------------
# bit-packed row reduction


def _forward(rows: Iterable[int], width: int) -> list[int]:
    """The one forward pass, of rank, hyperplane_functional and echelon:
    entry b is the stored row whose highest set bit is column b - 1 (its
    bit_length is b), or 0, for b = 0..width.  Each incoming row is reduced
    by the row stored under its highest bit until that bit is new or the
    row is zero, so the stored rows have distinct highest bits (the
    pivots).  Raises ValueError for a row with a bit at or above width,
    whose index the list does not hold."""
    basis = [0] * (width + 1)
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


# bit b of entry i is bit 7 - b of i
_BYTE_REVERSAL = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reversed(row: int, width: int) -> int:
    """The row with its width columns in reverse order: column c goes to
    column width - 1 - c, the bytes reversed and each byte read off
    _BYTE_REVERSAL."""
    size = -(-width // 8)
    flipped = row.to_bytes(size, "big").translate(_BYTE_REVERSAL)
    return int.from_bytes(flipped, "little") >> (8 * size - width)


def lowest_pivot_rows(rows: Iterable[int], width: int) -> list[int]:
    """Reduced row echelon form of bit-packed rows on width columns under
    lowest-bit pivots, pivots strictly increasing: the form that galerig
    cohomology --json prints.  It is echelon on the rows with their columns
    reversed, each result reversed back, in reverse order."""
    reduced = echelon((_reversed(row, width) for row in rows), width)
    return [_reversed(row, width) for row in reversed(reduced)]


def rank(rows: Iterable[int], width: int) -> int:
    """Rank of bit-packed rows on width columns: the count of pivots of the
    highest-bit forward pass (_forward).  Raises ValueError for a row with
    a bit at or above width."""
    return width + 1 - _forward(rows, width).count(0)


def hyperplane_functional(rows: Iterable[int], width: int) -> int:
    """The functional phi on width columns, as a bit vector, whose kernel
    the rows span, read off the highest-bit forward pass (_forward).

    The forward basis leaves one column c0 without a pivot, and phi(c0) =
    1.  A pivot p below c0 has a row whose bits are p and pivots below p, so
    phi(p) = 0 from the lowest up.  Then each pivot p above c0, from c0
    upward, gets the parity of phi on its row: the row has no bit above p,
    and every bit below p is c0 or a pivot already read, so phi(row) = 0
    fixes phi(p).  No back-substitution runs.  Raises ValueError unless the
    rows span a hyperplane and have no bit at or above width.
    """
    basis = _forward(rows, width)
    corank = basis.count(0) - 1  # entry 0 holds no row
    if corank != 1:
        raise ValueError(f"the rows span corank {corank} in {width} columns, not 1")
    free = basis.index(0, 1)
    phi = 1 << (free - 1)
    for top in range(free + 1, width + 1):
        if (phi & basis[top]).bit_count() & 1:
            phi |= 1 << (top - 1)
    return phi


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
def product_index(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """product_index(a, b)[i][j]: the column in degree a + b of monomial i
    of degree a times monomial j of degree b."""
    index = _monomial_index(a + b)
    return tuple(tuple(index[tuple(e + f for e, f in zip(low, high))] for high in monomials(b))
                 for low in monomials(a))


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
        """Build from per-degree spanning vectors (index = degree)."""
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
