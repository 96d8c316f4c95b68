"""Mod-2 characteristic matrices over a face structure, on the Gale dual.

A characteristic matrix is [I_n | B] with n x 3 block B; its kernel is
spanned by the rows of [B; I_3], so the matrix is the same thing as one
nonzero linear form in x, y, z per facet: row i of B for a leading facet
i <= n, and x, y, z for facets n+1, n+2, n+3.  A matrix is held as the
n-tuple of leading forms, entry i-1 being facet i's form with bit j standing
for variable j of (x, y, z).  It is characteristic iff, for every vertex,
the forms of the three facets off that vertex form a basis of GF(2)^3.
"""

from __future__ import annotations

from typing import Sequence

from .gale import FaceStructure
from .gf2 import rank

VARIABLES = (0b001, 0b010, 0b100)  # forms of facets n+1, n+2, n+3

# _COMPLETIONS[a][b] has bit c set iff the forms a, b, c are a basis.
_COMPLETIONS = tuple(
    tuple(sum(1 << c for c in range(1, 8) if rank((a, b, c)) == 3) for b in range(8))
    for a in range(8)
)


def row_strings(forms: Sequence[int]) -> list[str]:
    """Rows of the completion block, i.e. the forms spelled as x, y, z bits."""
    return ["".join(str((f >> j) & 1) for j in range(3)) for f in forms]


def forms_from_rows(rows: Sequence[str]) -> tuple[int, ...]:
    """Inverse of row_strings."""
    if any(len(r) != 3 or set(r) - {"0", "1"} for r in rows):
        raise ValueError(f"block rows must be three binary digits, got {list(rows)}")
    return tuple(sum(int(ch) << j for j, ch in enumerate(r)) for r in rows)


def _complement_triples(fs: FaceStructure) -> list[tuple[int, ...]]:
    """Facets off each vertex, as sorted 0-based index triples."""
    everything = frozenset(range(1, fs.m + 1))
    return [tuple(sorted(i - 1 for i in everything - face)) for face in fs.maximal_faces]


def _column_key(forms: Sequence[int]) -> tuple[int, ...]:
    """The block's columns as ints with row i at bit i-1: the order in which
    the reference lists and every report print matrices."""
    return tuple(sum(((f >> j) & 1) << i for i, f in enumerate(forms)) for j in range(3))


def is_characteristic(forms: Sequence[int], fs: FaceStructure) -> bool:
    """Whether the forms off every vertex of the polytope are a basis."""
    if fs.m - fs.n != 3 or len(forms) != fs.n:
        raise ValueError("matrix shape does not match the face structure")
    if any(not isinstance(f, int) or not 1 <= f <= 7 for f in forms):
        raise ValueError("forms must be nonzero vectors in GF(2)^3")
    full = tuple(forms) + VARIABLES
    return all((_COMPLETIONS[full[a]][full[b]] >> full[c]) & 1
               for a, b, c in _complement_triples(fs))


def _search_plan(n: int, triples: list[tuple[int, ...]]):
    """Order of the leading facets for the backtrack, each with the pairs
    that complete a triple at that facet.

    Greedy: next comes the facet that closes the most triples given the
    facets already placed (ties to the lowest index), so that every facet
    meets its constraints as soon as possible.
    """
    placed = set(range(n, n + 3))
    plan = []
    while len(placed) < n + 3:
        closing = {f: [tuple(t for t in triple if t != f) for triple in triples
                       if f in triple and all(t in placed for t in triple if t != f)]
                   for f in range(n) if f not in placed}
        facet = max(closing, key=lambda f: len(closing[f]))  # first maximum wins
        plan.append((facet, closing[facet]))
        placed.add(facet)
    return plan


def enumerate_charmats(fs: FaceStructure) -> list[tuple[int, ...]]:
    """All characteristic matrices over the face structure, as form tuples.

    Backtracks over the 7 nonzero forms per leading facet; each
    vertex-complement triple is tested as soon as its last facet is set, by
    intersecting the forms that complete each closed pair to a basis.
    Output is in column order (see _column_key).
    """
    n = fs.n
    if frozenset(range(1, n + 1)) not in set(fs.maximal_faces):
        raise ValueError("facet order is not normalized: leading facets must form a vertex")
    plan = _search_plan(n, _complement_triples(fs))
    forms = [0] * n + list(VARIABLES)
    found: list[tuple[int, ...]] = []

    def assign(step: int):
        if step == n:
            found.append(tuple(forms[:n]))
            return
        facet, pairs = plan[step]
        allowed = 0b11111110
        for a, b in pairs:
            allowed &= _COMPLETIONS[forms[a]][forms[b]]
        for f in range(1, 8):
            if (allowed >> f) & 1:
                forms[facet] = f
                assign(step + 1)

    assign(0)
    return sorted(found, key=_column_key)
