"""Mod-2 characteristic matrices over a face structure, on the Gale dual.

Facets are the 0-based positions of the facet order of
galerig.gale.face_structure (FaceStructure.labels).  A characteristic
matrix is [I_n | B] with n x 3 block B; its kernel is spanned by the rows
of [B; I_3], so the matrix is the same thing as one nonzero linear form in
x, y, z per facet: row i of B for a leading facet i < n, and x, y, z for
facets n, n+1, n+2.  A matrix is held as the n-tuple of leading forms,
entry i being facet i's form with bit j standing for variable j of (x, y,
z).  It is characteristic iff, for every vertex, the forms of the three
facets off that vertex form a basis of GF(2)^3;
FaceStructure.vertex_complements lists those triples.

enumerate_charmats lists every matrix, sorted as the reference lists are.
canonical_charmats lists them up to the permutations of each label's
leading facets, one canonical tuple (forms sorted along the label's
facets) with its multiplicity each, by the same backtrack with one more
bound: the symmetry breaking of orderly generation (McKay, J. Algorithms
26 (1998)).  One union-find over canonical tuples groups the matrices
into orbits under the automorphisms of the polytope: orbit_sizes gives
each orbit a representative and a size without the list, and orbits
reads a listed matrix's orbit off its canonical tuple.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Sequence

from .gale import FaceStructure, weight_symmetries

VARIABLES = (0b001, 0b010, 0b100)  # forms of facets n, n+1, n+2

# _COMPLETIONS[a][b] has bit c set iff the forms a, b, c are a basis:
# nonzero a != b span {0, a, b, a ^ b}, and any other nonzero c completes them.
_COMPLETIONS = tuple(
    tuple(0xFE & ~(1 << a | 1 << b | 1 << (a ^ b)) if a and b and a != b else 0
          for b in range(8))
    for a in range(8)
)


# _ROW_STRINGS[f]: the form f spelled as its x, y, z bits; _FORMS inverts it.
_ROW_STRINGS = ("000", "100", "010", "110", "001", "101", "011", "111")
_FORMS = {row: form for form, row in enumerate(_ROW_STRINGS)}


def row_strings(forms: Sequence[int]) -> list[str]:
    """Rows of the completion block, i.e. the forms spelled as x, y, z bits."""
    return [_ROW_STRINGS[f] for f in forms]


def forms_from_rows(rows: Sequence[str]) -> tuple[int, ...]:
    """Inverse of row_strings, on rows given as strings."""
    try:
        return tuple(_FORMS[r] for r in rows)
    except KeyError:
        raise ValueError(f"block rows must be three binary digits, got {list(rows)}") from None


def is_characteristic(forms: Sequence[int], fs: FaceStructure) -> bool:
    """Whether the forms off every vertex of the polytope are a basis."""
    if len(forms) != fs.n:
        raise ValueError("matrix shape does not match the face structure")
    for f in forms:
        if not isinstance(f, int) or not 1 <= f <= 7:
            raise ValueError("forms must be nonzero vectors in GF(2)^3")
    full = tuple(forms) + VARIABLES
    for a, b, c in fs.vertex_complements:
        if not (_COMPLETIONS[full[a]][full[b]] >> full[c]) & 1:
            return False
    return True


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
    pairs_at: list[list[tuple[int, int]]] = [[] for _ in range(n + 3)]
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
        # the first maximum wins: only a strictly greater count replaces it
        facet, most = -1, -1
        for f in range(n):
            if not placed[f] and closed[f] > most:
                facet, most = f, closed[f]
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


# _AT_LEAST[f] and _AT_MOST[f]: the forms g >= f and g <= f, as bit g.
_AT_LEAST = tuple(0xFF & -(1 << f) for f in range(8))
_AT_MOST = tuple((2 << f) - 1 for f in range(8))
# _FORMS_OF[mask]: the forms whose bits mask sets, in order; the masks
# of bits 0..f are those of bits 0..f-1, then each with f added.  A mask
# of allowed forms never sets bit 0, the zero form.
_FORMS_OF = reduce(lambda table, f: table + [forms + (f,) for forms in table], range(8), [()])


def _backtrack(fs: FaceStructure, runs=()) -> list[tuple[int, tuple[int, ...]]]:
    """(sort key, forms) of each characteristic matrix whose forms are
    non-decreasing in facet order along each run (start, stop) of leading
    facets, every matrix for no runs.

    Backtracks over the 7 nonzero forms per leading facet in the order of
    _search_plan; each vertex-complement triple is tested as soon as its
    last facet is set, by intersecting the forms that complete each closed
    pair to a basis, and each two adjacent facets of a run as soon as the
    later of the two is set.  The sort key is (column 0 << 2n) | (column 1
    << n) | column 2, a block column as the int with facet i's row at bit
    i, summed from per-facet tables cached per n (_column_keys).
    """
    n = fs.n
    if (n, n + 1, n + 2) not in fs.vertex_complements:
        raise ValueError("facet order is not normalized: leading facets must form a vertex")
    run_of = {facet: run for run in runs for facet in range(*run)}
    plan, placed = [], set()
    for facet, pairs in _search_plan(fs):
        start, stop = run_of.get(facet, (facet, facet + 1))
        plan.append((facet, pairs, [(table, other) for table, other in
                                    ((_AT_LEAST, facet - 1), (_AT_MOST, facet + 1))
                                    if start <= other < stop and other in placed]))
        placed.add(facet)
    columns = _column_keys(n)
    forms = [0] * n + list(VARIABLES)
    found: list[tuple[int, tuple[int, ...]]] = []

    def assign(step: int, key: int):
        if step == n:
            found.append((key, tuple(forms[:n])))
            return
        facet, pairs, bounds = plan[step]
        allowed = 0b11111110
        for a, b in pairs:
            allowed &= _COMPLETIONS[forms[a]][forms[b]]
        for table, other in bounds:
            allowed &= table[forms[other]]
        for f in _FORMS_OF[allowed]:
            forms[facet] = f
            assign(step + 1, key + columns[facet][f])

    assign(0, 0)
    return found


def enumerate_charmats(fs: FaceStructure) -> list[tuple[int, ...]]:
    """All characteristic matrices over the face structure, as form tuples,
    in the order of the reference lists and every report: by the sort key
    of _backtrack."""
    return [matrix for _, matrix in sorted(_backtrack(fs))]  # keys are distinct


@lru_cache(maxsize=None)
def _arrangements(forms: tuple[int, ...]) -> int:
    """The number of distinct orderings of a sorted run of forms: the
    multinomial of its form counts."""
    count, repeat = 1, 0
    for i in range(1, len(forms)):
        repeat = repeat + 1 if forms[i] == forms[i - 1] else 0
        count = count * (i + 1) // (repeat + 1)
    return count


def canonical_charmats(fs: FaceStructure) -> dict[tuple[int, ...], int]:
    """The characteristic matrices up to the permutations of leading facets
    of one label: {canonical tuple: multiplicity}, the canonical tuple of a
    matrix being its forms sorted along each label's leading facets, and
    its multiplicity the number of matrices with that canonical tuple, the
    product over labels of the multinomial of its form counts there.

    The permutations are automorphisms of the face structure that keep the
    trailing facets in place, so they map characteristic matrices to
    characteristic matrices with no renormalisation, and each matrix has
    one canonical tuple.  The backtrack of enumerate_charmats with the
    sorting bound (_backtrack) visits only canonical tuples, in search
    order; the multiplicities sum to len(enumerate_charmats(fs)).
    """
    runs = _facet_maps(fs.labels)[0]
    canonical = {}
    for _, forms in _backtrack(fs, runs):
        multiplicity = 1
        for start, stop in runs:
            multiplicity *= _arrangements(forms[start:stop])
        canonical[forms] = multiplicity
    return canonical


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
    """(runs, swaps, symmetries) of a facet labelling.  runs are the
    (start, stop) of the leading facets of each label held by two or more,
    which must be consecutive; swaps are, per trailing facet n + j whose
    label some leading facets carry, (j, start, stop) of those facets; and
    per weight-preserving polygon symmetry p other than the identity
    (gale.weight_symmetries), the facet map that sends the i-th facet of
    label l to the i-th facet of label p(l), as (lead, trail): the source
    facet of the form that facets 0..n-1 and n..n+2 carry after the map."""
    n = len(labels) - 3
    by_label: dict[int, list[int]] = {}
    for facet, label in enumerate(labels):
        by_label.setdefault(label, []).append(facet)
    spans = {}
    for label, facets in by_label.items():
        lead = [f for f in facets if f < n]
        if lead:
            if lead[-1] - lead[0] >= len(lead):
                raise ValueError(f"the leading facets of label {label} are not consecutive")
            spans[label] = (lead[0], lead[-1] + 1)
    runs = tuple(span for span in spans.values() if span[1] - span[0] > 1)
    swaps = tuple((j, *spans[labels[n + j]]) for j in range(3) if labels[n + j] in spans)
    groups = [by_label[label] for label in sorted(by_label)]
    symmetries = []
    for p in weight_symmetries(tuple(map(len, groups))):
        source = [0] * len(labels)
        for label, facets in enumerate(groups):
            for facet, target in zip(facets, groups[p[label]]):
                source[target] = facet
        symmetries.append((tuple(source[:-3]), tuple(source[-3:])))
    return runs, swaps, tuple(symmetries)


def _sorted_runs(forms, runs) -> tuple[int, ...]:
    """The canonical tuple of a matrix: its forms sorted along each run."""
    forms = list(forms)
    for start, stop in runs:
        forms[start:stop] = sorted(forms[start:stop])
    return tuple(forms)


def _roots(fs: FaceStructure, canonical: list[tuple[int, ...]]) -> list[int]:
    """Entry i is the least index in canonical of a tuple that the
    automorphisms of the polytope (orbits) link to canonical[i].

    The same-label group is generated by the permutations of each label's
    leading facets, which fix every canonical tuple, and one transposition
    of each trailing facet n + j with a leading facet of its label.  Such a
    swap puts that facet's form f in variable j's place, and the
    transvection v -> v + v_j (f + e_j), its own inverse, renormalises
    every form; facets of one label and form give images with one
    canonical tuple, so one swap per distinct form other than e_j is made.
    A union-find links each tuple to the canonical tuple of each such
    image; an image missing from canonical links nothing.

    The polygon symmetries normalise the same-label group, so they are
    applied once per part, to its root, in list order: each links the
    part to its image's part, the moved trailing forms u_0, u_1, u_2 are
    a basis, and the g with g(u_j) = e_j renormalises every form, read off
    a table cached per basis and built on first use (_renormaliser).  The
    symmetries listed are all of their group but the identity, so once a
    root has been moved by each, every part it reached holds only images
    of parts already linked, and a part already linked to an earlier root
    is skipped.
    """
    runs, swaps, symmetries = _facet_maps(fs.labels)
    index = {forms: i for i, forms in enumerate(canonical)}
    parent = list(range(len(canonical)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def link(i: int, moved):
        j = index.get(_sorted_runs(moved, runs))
        if j is not None:
            ri, rj = root(i), root(j)
            parent[max(ri, rj)] = min(ri, rj)

    for i, forms in enumerate(canonical):
        for j, start, stop in swaps:
            e = VARIABLES[j]
            for f in set(forms[start:stop]) - {e}:
                shift = e ^ f
                moved = [v ^ shift if v & e else v for v in forms]
                moved[forms.index(f, start)] = f
                link(i, moved)

    if symmetries:
        for i, forms in enumerate(canonical):
            if parent[i] != i:
                continue  # not a root, or its part is linked to an earlier one
            full = forms + VARIABLES
            for lead, (a, b, c) in symmetries:
                g = _renormaliser((full[a], full[b], full[c]))
                link(i, [g[full[f]] for f in lead])
    return [root(i) for i in range(len(canonical))]


def orbit_sizes(fs: FaceStructure, canonical: dict[tuple[int, ...], int]) -> dict:
    """{representative: size} of each orbit of the characteristic matrices
    under the automorphisms of the polytope (orbits), given
    canonical_charmats(fs): the representative is the orbit's first
    canonical tuple in canonical's order, and the size sums the
    multiplicities of its canonical tuples."""
    tuples = list(canonical)
    sizes: dict[tuple[int, ...], int] = {}
    for forms, r in zip(tuples, _roots(fs, tuples)):
        sizes[tuples[r]] = sizes.get(tuples[r], 0) + canonical[forms]
    return sizes


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

    Each matrix is read off its canonical tuple (canonical_charmats), and
    the distinct canonical tuples, in order of first appearance, are
    linked as orbit_sizes links them (_roots).  On the enumeration, which
    the automorphisms map onto itself, the parts are the orbits.  On a
    partial list, matrices of one canonical tuple share a part and a link
    is made only where the image's canonical tuple is listed, so each part
    still lies inside one orbit.
    """
    runs = _facet_maps(fs.labels)[0]
    canonical = [_sorted_runs(forms, runs) for forms in blocks]
    first: dict[tuple[int, ...], int] = {}
    for i, forms in enumerate(canonical):
        first.setdefault(forms, i)
    tuples = list(first)
    representative = {forms: first[tuples[r]] for forms, r in zip(tuples, _roots(fs, tuples))}
    return [representative[forms] for forms in canonical]
