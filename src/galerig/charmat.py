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

from functools import lru_cache
from typing import Sequence

from .gale import FaceStructure, weight_symmetries
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
    Each facet's count of closed pairs is kept and raised as facets are
    placed, the three trailing facets first: placing p closes, at each
    unplaced facet of a triple (p, a, b), the pair with the other facet if
    that one is placed.
    """
    n = fs.n
    pairs_at: dict[int, list[tuple[int, int]]] = {f: [] for f in range(n + 3)}
    for a, b, c in fs.vertex_complements:
        pairs_at[a].append((b, c))
        pairs_at[b].append((a, c))
        pairs_at[c].append((a, b))
    placed, closed = [False] * (n + 3), [0] * (n + 3)

    def place(facet: int):
        placed[facet] = True
        for a, b in pairs_at[facet]:
            if placed[a] != placed[b]:
                closed[b if placed[a] else a] += 1

    for facet in range(n, n + 3):
        place(facet)
    plan = []
    for _ in range(n):
        # the first maximum wins
        facet = max((f for f in range(n) if not placed[f]), key=closed.__getitem__)
        plan.append((facet, [(a, b) for a, b in pairs_at[facet] if placed[a] and placed[b]]))
        place(facet)
    return plan


@lru_cache(maxsize=None)
def _column_keys(n: int) -> tuple[tuple[int, ...], ...]:
    """_column_keys(n)[i][f]: facet i's share of the sort key of a matrix
    whose facet i has form f, bit j of f at bit i + (2 - j) n."""
    return tuple(tuple(sum(((f >> j) & 1) << (i + (2 - j) * n) for j in range(3))
                       for f in range(8))
                 for i in range(n))


def enumerate_charmats(fs: FaceStructure) -> list[tuple[int, ...]]:
    """All characteristic matrices over the face structure, as form tuples.

    Backtracks over the 7 nonzero forms per leading facet; each
    vertex-complement triple is tested as soon as its last facet is set, by
    intersecting the forms that complete each closed pair to a basis.
    Output is in the order of the reference lists and every report: by
    (column 0 << 2n) | (column 1 << n) | column 2, a block column as the
    int with facet i's row at bit i, summed from per-facet tables cached
    per n (_column_keys).
    """
    n = fs.n
    if (n, n + 1, n + 2) not in fs.vertex_complements:
        raise ValueError("facet order is not normalized: leading facets must form a vertex")
    plan = _search_plan(fs)
    columns = _column_keys(n)
    forms = [0] * n + list(VARIABLES)
    found: list[tuple[int, tuple[int, ...]]] = []

    def assign(step: int, key: int):
        if step == n:
            found.append((key, tuple(forms[:n])))
            return
        facet, pairs = plan[step]
        allowed = 0b11111110
        for a, b in pairs:
            allowed &= _COMPLETIONS[forms[a]][forms[b]]
        for f in range(1, 8):
            if (allowed >> f) & 1:
                forms[facet] = f
                assign(step + 1, key + columns[facet][f])

    assign(0, 0)
    return [matrix for _, matrix in sorted(found)]  # keys are distinct: no tuple is compared


@lru_cache(maxsize=None)
def _renormaliser(basis: tuple[int, int, int]) -> tuple[int, ...]:
    """The map g with g(u_j) = e_j, the form of variable j, for a basis
    (u_0, u_1, u_2) of GF(2)^3, as its 8 values: the form v = sum of
    c_j u_j has g(v) = c.  Cached per basis, built on first use."""
    span = [0]  # span[c] = sum of c_j u_j
    for u in basis:
        span += [v ^ u for v in span]
    if len(set(span)) != 8:
        raise ValueError(f"forms {basis} are not a basis of GF(2)^3")
    g = [0] * 8
    for c, v in enumerate(span):
        g[v] = c
    return tuple(g)


@lru_cache(maxsize=None)
def _facet_maps(labels: tuple[int, ...]):
    """(swaps, symmetries) of a facet labelling: the adjacent pairs a < b of
    facets of each label, and per weight-preserving polygon symmetry p
    other than the identity (gale.weight_symmetries), the facet map that
    sends the i-th facet of label l to the i-th facet of label p(l), as
    (lead, trail): the source facet of the form that facets 0..n-1 and
    n..n+2 carry after the map."""
    by_label: dict[int, list[int]] = {}
    for facet, label in enumerate(labels):
        by_label.setdefault(label, []).append(facet)
    swaps = tuple(pair for facets in by_label.values() for pair in zip(facets, facets[1:]))
    groups = [by_label[label] for label in sorted(by_label)]
    symmetries = []
    for p in weight_symmetries(tuple(map(len, groups))):
        source = [0] * len(labels)
        for label, facets in enumerate(groups):
            for facet, target in zip(facets, groups[p[label]]):
                source[target] = facet
        symmetries.append((tuple(source[:-3]), tuple(source[-3:])))
    return swaps, tuple(symmetries)


def orbits(fs: FaceStructure, blocks: Sequence[tuple[int, ...]]) -> list[int]:
    """Orbit representative of each matrix under the combinatorial
    automorphisms of the polytope: entry i is the index in blocks of the
    first member, in list order, of the orbit of blocks[i].

    The automorphisms are the permutations of facets that carry the same
    polygon label, and the rotations and reflections of the polygon that
    fix the weights, each mapping the facets of label l in order onto
    those of its image (_facet_maps).  Such a map pi sends minimal
    non-faces (the facets labelled in an arc) to minimal non-faces and
    vertices to vertices, so the forms of lambda o pi have the ideal of
    lambda with its generators reordered, and renormalising them so that
    facets n..n+2 carry x, y, z is a degree-one substitution: every member
    of an orbit has the same quotient up to isomorphism.

    A union-find over blocks links each matrix to its image under the
    adjacent transpositions of each label class, which generate the
    same-label group.  An image missing from blocks links nothing, so each
    part lies inside one orbit whatever the list; on the enumeration, which
    the automorphisms map onto itself, the parts are then the same-label
    orbits.  The trailing facets are off a vertex, so their labels differ
    and a transposition moves at most one of them: swapping trailing facet
    n+j with a leading facet of form f puts f in variable j's place, and
    the transvection v -> v + v_j (f + e_j), its own inverse, renormalises
    every form.  A transposition that fixes the matrix, of two leading
    facets with one form or of a trailing facet with a leading facet
    already of its variable's form, would link a matrix to itself and is
    skipped.

    The polygon symmetries normalise the same-label group, so they are
    applied once per part, to its root, in list order: each links the
    part to its image's part, the moved trailing forms u_0, u_1, u_2 are
    a basis, and the g with g(u_j) = e_j renormalises every form, read off
    a table cached per basis and built on first use (_renormaliser).  The symmetries listed
    are all of their group but the identity, so once a root has been
    moved by each, every part it reached holds only images of parts
    already linked, and a part already linked to an earlier root is
    skipped.
    """
    n = fs.n
    swaps, symmetries = _facet_maps(fs.labels)
    index = {forms: i for i, forms in enumerate(blocks)}
    parent = list(range(len(blocks)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
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
                if forms[a] == forms[b]:
                    continue  # the swap fixes the matrix
                moved = list(forms)
                moved[a], moved[b] = forms[b], forms[a]
            else:
                e, f = VARIABLES[b - n], forms[a]
                shift = e ^ f
                if not shift:
                    continue  # form a is already variable j: no shift
                moved = [v ^ shift if v & e else v for v in forms]
                moved[a] = f
            link(i, moved)

    if symmetries:
        for i, forms in enumerate(blocks):
            if parent[i] != i:
                continue  # not a root, or its part is linked to an earlier one
            full = forms + VARIABLES
            for lead, (a, b, c) in symmetries:
                g = _renormaliser((full[a], full[b], full[c]))
                link(i, [g[full[f]] for f in lead])
    return [root(i) for i in range(len(blocks))]
