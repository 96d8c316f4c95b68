"""Mod-2 characteristic matrices over a face structure, on the Gale dual.

Facets are the 0-based positions of galerig.gale.facet_labels.  A
characteristic matrix is [I_n | B] with n x 3 block B; its kernel is
spanned by the rows of [B; I_3], so the matrix is the same thing as one
nonzero linear form in x, y, z per facet: row i of B for a leading facet
i < n, and x, y, z for facets n, n+1, n+2.  A matrix is held as the
n-tuple of leading forms, entry i being facet i's form with bit j standing
for variable j of (x, y, z).  It is characteristic iff, for every vertex,
the forms of the three facets off that vertex form a basis of GF(2)^3;
FaceStructure.vertex_complements lists those triples.
"""

from __future__ import annotations

from typing import Sequence

from .gale import FaceStructure
from .gf2 import rank

VARIABLES = (0b001, 0b010, 0b100)  # forms of facets n, n+1, n+2

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


def _column_key(forms: Sequence[int]) -> tuple[int, ...]:
    """The block's columns as ints with facet i's row at bit i: the order
    in which the reference lists and every report print matrices."""
    return tuple(sum(((f >> j) & 1) << i for i, f in enumerate(forms)) for j in range(3))


def is_characteristic(forms: Sequence[int], fs: FaceStructure) -> bool:
    """Whether the forms off every vertex of the polytope are a basis."""
    if len(forms) != fs.n:
        raise ValueError("matrix shape does not match the face structure")
    if any(not isinstance(f, int) or not 1 <= f <= 7 for f in forms):
        raise ValueError("forms must be nonzero vectors in GF(2)^3")
    full = tuple(forms) + VARIABLES
    return all((_COMPLETIONS[full[a]][full[b]] >> full[c]) & 1
               for a, b, c in fs.vertex_complements)


def _search_plan(fs: FaceStructure):
    """Order of the leading facets for the backtrack, each with the pairs
    that complete a triple at that facet.

    Greedy: next comes the facet that closes the most triples given the
    facets already placed (ties to the lowest index), so that every facet
    meets its constraints as soon as possible.  Each facet's pairs come
    from one index of fs.vertex_complements by facet, built once, in which
    triple (a, b, c) files (b, c) under a, (a, c) under b and (a, b) under c.
    """
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


def enumerate_charmats(fs: FaceStructure) -> list[tuple[int, ...]]:
    """All characteristic matrices over the face structure, as form tuples.

    Backtracks over the 7 nonzero forms per leading facet; each
    vertex-complement triple is tested as soon as its last facet is set, by
    intersecting the forms that complete each closed pair to a basis.
    Output is in column order (see _column_key).
    """
    n = fs.n
    if (n, n + 1, n + 2) not in fs.vertex_complements:
        raise ValueError("facet order is not normalized: leading facets must form a vertex")
    plan = _search_plan(fs)
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


def orbits(fs: FaceStructure, blocks: Sequence[tuple[int, ...]]) -> list[int]:
    """Orbit representative of each matrix under the permutations of facets
    that carry the same polygon label: entry i is the index in blocks of the
    first member, in list order, of the orbit of blocks[i].

    Such a permutation pi fixes every minimal non-face (the facets labelled
    in an arc) and maps vertices to vertices, so the forms of lambda o pi
    have the ideal of lambda, and renormalising them so that facets n..n+2
    carry x, y, z is a degree-one substitution: every member of an orbit
    has the same quotient up to isomorphism.

    A union-find over blocks links each matrix to its image under the
    adjacent transpositions of each label class, which generate the class's
    symmetric group.  An image missing from blocks links nothing, so each
    part lies inside one orbit whatever the list; on the enumeration, which
    the group maps onto itself, the parts are the orbits.  The trailing
    facets are off a vertex, so their labels differ and a transposition
    moves at most one of them: swapping trailing facet n+j with a leading
    facet of form f puts f in variable j's place, and the transvection
    v -> v + v_j (f + e_j), its own inverse, renormalises every form.
    """
    n = fs.n
    by_label: dict[int, list[int]] = {}
    for facet, label in enumerate(fs.labels):
        by_label.setdefault(label, []).append(facet)
    swaps = [pair for facets in by_label.values() for pair in zip(facets, facets[1:])]
    index = {forms: i for i, forms in enumerate(blocks)}
    parent = list(range(len(blocks)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, forms in enumerate(blocks):
        for a, b in swaps:  # a < b, and only b can be a trailing facet
            if b < n:
                moved = list(forms)
                moved[a], moved[b] = forms[b], forms[a]
            else:
                e, f = VARIABLES[b - n], forms[a]
                shift = e ^ f
                moved = [v ^ shift if v & e else v for v in forms]
                moved[a] = f
            j = index.get(tuple(moved))
            if j is not None:
                ri, rj = root(i), root(j)
                parent[max(ri, rj)] = min(ri, rj)
    return [root(i) for i in range(len(blocks))]
