"""GF(2) cohomology quotients of quasitoric manifolds over polytopes with
n+3 facets, and graded-isomorphism testing between them.

Given a characteristic matrix as one linear form in x, y, z per facet (see
galerig.charmat), the matrix's forms on facets 0..n-1 and x, y, z on facets
n, n+1, n+2, the quotient is GF(2)[x,y,z] modulo the ideal generated by the
products of the forms over each minimal non-face, one generator per entry
of FaceStructure.minimal_nonfaces in its order.  The quotient vanishes
above degree n, so ideals are stored degreewise up to degree n+1, where the
component must be the full monomial space.  Polynomials are (degree, vec)
pairs and linear forms are the ints 1..7 of galerig.gf2 and galerig.charmat;
a product by a linear form is gf2.times_form (by x, y and z at once,
gf2.times_variables), and the products by monomials are read off
gf2.product_index.

Isomorphism is decided by keys.  The quotient is the mod-2 cohomology of a
closed 2n-manifold, so Poincare duality makes it Gorenstein with socle
degree n: I_n is a hyperplane of S_n = GF(2)[x,y,z]_n, and its annihilator,
the socle functional phi, determines every component, I_d = {f in S_d :
phi(f * S_(n-d)) = 0} (Macaulay's inverse system).  A degree-one
substitution g therefore maps one ideal onto another iff phi_b o g =
phi_a, and both algebras are generated in degree one, so every graded
isomorphism is such a g in GL(3, GF(2)).  The key of a quotient is (n, h,
least element of the orbit {phi o g : g in GL(3, GF(2))}), h its Hilbert
function, equal for two quotients iff they are isomorphic.
The key needs no quotient: top_functionals reads phi off I_n alone for
each matrix of one diagram, continuing the forward passes that the
matrices' shared leading blocks of rows leave, and checks the duality by
the ranks of phi's catalecticants against the h-vector of the Betti table
(check_inverse_system), through gf2.hyperplane_functional; report
--verify reads each published block's phi the same way, one call per
family (galerig.verify).  Its tables outlive a call and are
keyed by n alone or by n and a multiset of forms, never by a diagram or
a phi: the I_n rows of a minimal non-face per n and its forms as a
sorted tuple, one tuple per multiset (_nonface_rows), and per n the byte
tables that map phi to all of Cat_0..Cat_(n//2), stacked, in one lookup
per byte, with the plan that slices each degree's rows off
(_catalecticant_tables); Cat_(n-d) is the transpose of Cat_d, so no
degree above n//2 is tabled.  The forward states of top_functionals
live for one call.
The dual side has one more operation, the contraction psi -> (f ->
psi(l * f)) of a functional by a linear form l, the transpose of
multiplication by l, which gf2.contract_form reads off the same lex
blocks as gf2.times_form, with no table.  Every
table is read off gf2's one monomial product, product_index, and its
transposes (gf2.transpose); this module holds no monomial arithmetic of
its own.
iso_keys fills an orbit along a breadth-first word tree of GL(3, GF(2))
in s = (x+y, y, z) and t = (y, z, x), one table image per element: s and
its conjugates by t are the transvections x -> x+y, y -> y+z, z -> z+x,
their commutators are the other three, and these six generate the group,
so the least element filled is the least phi o g over the group.  Once a
process has filled w = monomial_count(n) orbits of one n this way, it
builds the stacked table of n, the 168 images of each monomial functional
side by side (_orbit_table), from w more such fills, and every later
orbit of n is one lookup per 4 bits of phi.  An orbit is
filled once and remembered phi by phi, in one map per h-vector
(galerig.cli._class_keys), which the last of two or more lists keyed
together only reads.
find_graded_iso reads its witness off the chained orbit of phi_b, the
least g, as a row triple, with phi_b o g = phi_a, and certifies it
against two saturated quotients' full ideals.
Nor need every matrix be keyed: the matrices of one orbit under the
automorphisms of the polytope (galerig.charmat.orbits) have one ideal up
to a degree-one substitution, hence one key.
The codimension and order invariants of the seven nonzero linear forms are
computed for reporting and cross-checks; the isomorphism verdict never
depends on them.  invariant_profile reads them off phi too, since I_d is
the kernel of phi's degree-d catalecticant, by contraction alone: codim
off the catalecticant ranks of phi's contraction by each form, ord off
repeated contractions, so the profile command builds no quotient either.
Nor does the cohomology command, from the same functionals: it prints the
h-vector as the Hilbert function, the products over the minimal
non-faces as generators (generators), and under --json each I_d read off
phi (annihilator_rows), the left kernel of Cat_d and, in degree n - d,
the kernel of Cat_d's rows, through gf2.complement.  No command builds
the saturated quotient of a matrix (quotient_presentation, which the
tests' oracles and the benchmark's tracer still reach).  report --verify
saturates the ideal of each published generator row (_saturated_ideal,
one elimination per degree) to match it against phi (galerig.verify),
and codim and order compute the profile's invariants on that ideal
itself, stored through degree n + 1, by multiplication: the second path
that certifies a profile cell disagreeing with a published table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from struct import Struct
from typing import Iterable, NamedTuple, Sequence

from .charmat import VARIABLES, is_characteristic
from .gale import FaceStructure
from .gf2 import (
    GradedSubspace,
    _forward,
    byte_tables,
    complement,
    contract_form,
    echelon,
    hyperplane_functional,
    image,
    monomial_count,
    product_index,
    rank,
    table_image,
    times_form,
    times_variables,
    transpose,
)

X, Y, Z = VARIABLES

LINEAR_FORM_NAMES = ("x", "y", "z", "x+y", "x+z", "y+z", "x+y+z")
LINEAR_FORMS = (X, Y, Z, X | Y, X | Z, Y | Z, X | Y | Z)


class GradedQuotient(NamedTuple):
    """Quotient of GF(2)[x,y,z] by a graded ideal stored degreewise.

    hilbert[d] is the quotient dimension in degree d (0 <= d <= n) and equals
    the h-vector of the source polytope.  Two quotients are equal when n,
    ideal and hilbert are.  Quotients are not hashable.
    """

    n: int
    ideal: GradedSubspace
    hilbert: tuple[int, ...]
    __hash__ = None


def _validate_quotient(q: GradedQuotient):
    top = q.n + 1
    if q.ideal.dimension(top) != monomial_count(top):
        raise ValueError(f"ideal is not full in degree {top}")
    # Dehn-Sommerville: the h-vector is palindromic with h_n = 1, as the
    # socle functional that find_graded_iso reads off I_n needs.
    if q.hilbert != q.hilbert[::-1] or q.hilbert[-1] != 1:
        raise ValueError("quotient dimensions are not palindromic with a "
                         "one-dimensional top degree")


def quotient_presentation(fs: FaceStructure, forms: Sequence[int]) -> GradedQuotient:
    """Cohomology quotient of the quasitoric manifold given by a
    characteristic matrix over the face structure.

    Args:
        fs: face structure in normalized facet order.
        forms: the matrix as the linear forms of facets 0..n-1.

    The ideal, generated by the generators (below), is saturated degree
    by degree, with one elimination per degree (_saturated_ideal).  The
    commands read every ideal off its socle functional instead
    (annihilator_rows); this saturated one is the tests' independent
    reference, and the benchmark's tracer wraps it.
    """
    if not is_characteristic(forms, fs):
        raise ValueError("matrix is not characteristic over this face structure")

    n = fs.n
    ideal = _saturated_ideal(generators(fs, forms), n + 1)
    hilbert = tuple(monomial_count(d) - ideal.dimension(d) for d in range(n + 1))
    quotient = GradedQuotient(n=n, ideal=ideal, hilbert=hilbert)
    _validate_quotient(quotient)
    return quotient


def generators(fs: FaceStructure, forms: Sequence[int]) -> list[tuple[int, int]]:
    """The (degree, vec) generators of a matrix's ideal, one per entry of
    fs.minimal_nonfaces in its order: the product of the facet forms over
    the non-face, facets n, n+1, n+2 carrying x, y, z."""
    full = tuple(forms) + VARIABLES
    return [(len(nonface), _product(full[i] for i in nonface)) for nonface in fs.minimal_nonfaces]


def _product(forms: Iterable[int]) -> int:
    """The product of linear forms, as a vector of their degree."""
    vec = 1
    for degree, form in enumerate(forms):
        vec = times_form(vec, degree, form)
    return vec


def _saturated_ideal(generators: Iterable[tuple[int, int]], top: int) -> GradedSubspace:
    """Graded ideal generated by (degree, vec) polynomials, degreewise up to
    top: I_d is spanned by the degree-d generators and x, y, z times the
    reduced rows of I_(d-1) (gf2.times_variables).  Each degree is
    eliminated once (echelon), and its reduced rows are both the stored
    component and the ones multiplied up."""
    spans: list = [[] for _ in range(top + 1)]
    for degree, vec in generators:
        if degree > top:
            raise ValueError(f"generator degree {degree} above the stored range")
        spans[degree].append(vec)
    for d, span in enumerate(spans):
        spans[d] = rows = tuple(echelon(span, monomial_count(d)))
        if d < top:
            spans[d + 1] += [product for row in rows for product in times_variables(row, d)]
    return GradedSubspace(tuple(spans))


# ---------------------------------------------------------------------------
# codim and order


def _check_form(form: int):
    if not isinstance(form, int) or not 1 <= form <= 7:
        raise ValueError(f"a linear form is an int 1..7, got {form!r}")


def codim(form: int, ideal: GradedSubspace) -> int:
    """Least degree d >= 1 at which multiplication by the linear form has a
    nonzero kernel on the quotient by a saturated ideal stored through
    degree n + 1 (n = ideal.max_degree - 1): the space {delta of degree d :
    form*delta in the ideal} exceeds the ideal's own degree-d component."""
    _check_form(form)
    for d in range(1, ideal.max_degree - 1):
        rows = [ideal.reduce(d + 1, times_form(1 << c, d, form))
                for c in range(monomial_count(d))]
        if len(rows) - rank(rows, monomial_count(d + 1)) > ideal.dimension(d):
            return d
    # the map from degree n-1 (dim 3) to degree n (dim 1) always has a kernel
    raise RuntimeError("no annihilated degree found; quotient is malformed")


def order(form: int, ideal: GradedSubspace) -> int:
    """Least power of the linear form lying in a saturated ideal stored
    through degree n + 1; at most n+1 since every degree-(n+1) polynomial
    does."""
    _check_form(form)
    power = form
    for exponent in range(1, ideal.max_degree + 1):
        if ideal.contains(exponent, power):
            return exponent
        power = times_form(power, exponent, form)
    raise RuntimeError("top-degree component is not full; quotient is malformed")


def invariant_profile(phi: int, h: Sequence[int]) -> dict:
    """codim and order of the seven nonzero linear forms in the quotient
    whose socle functional on S_n is phi, as the record {"forms": [...],
    "codim": [...], "ord": [...]} in the fixed column order x, y, z, x+y,
    x+z, y+z, x+y+z.  h, with n = len(h) - 1, must be the ranks of phi's
    catalecticants (_ranks), which are not computed again: each caller
    passes the h-vector that check_inverse_system has just checked phi
    against.

    I_d is the kernel of phi's degree-d catalecticant Cat_d, whose rank h_d
    is the quotient's dimension in degree d, so no quotient is built.  Let
    psi be the contraction of phi by the form, f -> phi(form * f) on
    S_(n-1).  Cat_d(psi) is the matrix of phi(form * f * g), the rows of
    Cat_d, each contracted by the form, so codim(form) is the least d in
    1..n-1 at which psi's rank in degree d (_ranks) is below h_d, and
    ord(form) the least e <= n at which e contractions of phi by the form
    give 0, or n + 1.  A phi for which no degree qualifies, such as 0,
    raises RuntimeError.
    """
    n = len(h) - 1
    codims, ords = [], []
    for form in LINEAR_FORMS:
        psi = contract_form(phi, n, form)
        ranks = _ranks(psi, n - 1)
        codim = next((d for d in range(1, n) if ranks[d] < h[d]), None)
        if codim is None:
            raise RuntimeError("no annihilated degree found; functional is malformed")
        codims.append(codim)
        exponent = 1
        while psi and exponent < n:
            psi = contract_form(psi, n - exponent, form)
            exponent += 1
        ords.append(n + 1 if psi else exponent)
    return {"forms": list(LINEAR_FORM_NAMES), "codim": codims, "ord": ords}


# ---------------------------------------------------------------------------
# degree-one substitutions and isomorphism keys


@lru_cache(maxsize=None)
def _subst_matrix(rows: tuple[int, int, int], degree: int) -> tuple[int, ...]:
    """Image vector of each degree-d basis monomial under the substitution
    of the forms rows[j] for the variables: a substitution is a ring map,
    so the image of monomial c = m * x_k, for any such factorisation in
    product_index(d - 1, 1), is the image of m times the form rows[k]."""
    if degree == 0:
        return (1,)
    lower = _subst_matrix(rows, degree - 1)
    factors = {c: (m, k) for m, row in enumerate(product_index(degree - 1, 1))
               for k, c in enumerate(row)}
    return tuple(times_form(lower[m], degree - 1, rows[k])
                 for _, (m, k) in sorted(factors.items()))


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
            if qb.ideal.reduce(d, image(row, table)):
                return False
    return True


def quotient_functional(q: GradedQuotient) -> int:
    """The socle functional read off a saturated quotient's own I_n
    (find_graded_iso's, and the tests')."""
    return hyperplane_functional(q.ideal.rows(q.n), monomial_count(q.n))


@lru_cache(maxsize=None)
def _catalecticant_tables(n: int):
    """(tables, plan) of the catalecticants of phi on S_n in the lower
    degrees d = 0..n // 2, stacked in one int: table_image(phi, tables)
    holds Cat_d's rows from bit o_d on, row i at bit o_d + i * w_d, w_d the
    number of monomials of degree n - d and o_d the bits of the degrees
    below d, and plan lists per degree (shifts, mask, w_d), the rows'
    offsets, a mask of w_d bits and the width.  Column c of the byte
    tables has bit o_d + i * w_d + j set iff monomial i of degree d times
    monomial j of degree n - d is monomial c of degree n (product_index).

    The key check reads the tables of n and the profile those of n and of
    n - 1 (for the contracted functionals), so a process that does both
    builds each n once.  They take ceil(C(n + 2, 2) / 8) tables of 256
    entries, by sys.getsizeof at most 0.06 MB at n = 6, 0.75 MB at n = 11
    and 9.4 MB at n = 17."""
    columns = [0] * monomial_count(n)
    plan, offset = [], 0
    for d in range(n // 2 + 1):
        width = monomial_count(n - d)
        for i, row in enumerate(product_index(d, n - d)):
            for j, c in enumerate(row):
                columns[c] |= 1 << (offset + i * width + j)
        end = offset + monomial_count(d) * width
        plan.append((range(offset, end, width), (1 << width) - 1, width))
        offset = end
    return byte_tables(columns), tuple(plan)


def _ranks(phi: int, n: int) -> list[int]:
    """The ranks of phi's catalecticants Cat_0..Cat_n.  Row i of Cat_d has
    bit j = phi(monomial i of degree d * monomial j of degree n - d), so f
    pairs to zero against S_(n-d) iff image(f, Cat_d) == 0, and the kernel
    is Ann(phi)_d.  The rows of every d <= n // 2 are one table_image of
    phi over the stacked tables cached per n (_catalecticant_tables), and
    each row, sliced off it by the plan's shift and mask, goes straight
    into gf2's forward pass (gf2._forward), run here inline, one pass per
    degree, counting the rows it stores.  Cat_(n-d) is the transpose of
    Cat_d, so the degrees above n // 2 mirror those below."""
    tables, plan = _catalecticant_tables(n)
    stacked = table_image(phi, tables)
    ranks = []
    for shifts, mask, width in plan:
        basis, stored = [0] * (width + 1), 0
        for shift in shifts:
            row = (stacked >> shift) & mask
            while row:
                top = row.bit_length()
                pivot_row = basis[top]
                if not pivot_row:
                    basis[top] = row
                    stored += 1
                    break
                row ^= pivot_row
        ranks.append(stored)
    return ranks + ranks[:(n + 1) // 2][::-1]


def annihilator_rows(phi: int, n: int) -> list[list[int]]:
    """I_0..I_(n+1) of the ideal Ann(phi), each as gf2.complement's rows
    (the reduced rows under lowest-bit pivots that galerig cohomology
    --json prints).  For each d <= n // 2, Cat_d's rows are sliced off the
    stacked tables (_catalecticant_tables) as in _ranks: I_(n-d) is the
    complement of its rows and I_d that of its columns, the rows of its
    transpose.  I_(n+1) is all of S_(n+1)."""
    tables, plan = _catalecticant_tables(n)
    stacked = table_image(phi, tables)
    ideal = [None] * (n + 1) + [complement((), monomial_count(n + 1))]
    for d, (shifts, mask, width) in enumerate(plan):
        rows = [(stacked >> shift) & mask for shift in shifts]
        ideal[n - d] = complement(rows, width)
        ideal[d] = complement(transpose(rows, width), len(rows))
    return ideal


def check_inverse_system(phi: int, n: int, h: Sequence[int]):
    """Raise ValueError unless phi's catalecticant has rank h_d in every
    degree d = 0..n (_ranks), i.e. unless an ideal with Hilbert function h
    inside Ann(phi) is Ann(phi) itself.  An h with other than n + 1
    entries is refused."""
    if len(h) != n + 1:
        raise ValueError(f"an h-vector of a {n}-polytope has {n + 1} entries, got {len(h)}")
    for d, (r, h_d) in enumerate(zip(_ranks(phi, n), h)):
        if r != h_d:
            raise ValueError(f"ideal is not the inverse system of its top degree: "
                             f"rank {r} against h_{d} = {h_d} in degree {d}")


@lru_cache(maxsize=None)
def _nonface_rows(n: int, factors: tuple[int, ...]) -> tuple[int, ...]:
    """The I_n spanning rows of a minimal non-face whose forms, sorted, are
    factors: their product, of degree e, times each monomial of degree
    n - e, one bit per monomial of the product (product_index)."""
    vec, products = _product(factors), product_index(len(factors), n - len(factors))
    terms = [products[c] for c in range(vec.bit_length()) if (vec >> c) & 1]
    return tuple(sum(1 << row[j] for row in terms) for j in range(len(products[0])))


def top_functionals(fs: FaceStructure, representatives: Sequence[Sequence[int]],
                    h: Sequence[int]) -> list[int]:
    """The socle functional phi of each characteristic matrix's quotient,
    whose kernel is I_n, from that component alone, in order.

    Args:
        fs: face structure in normalized facet order.
        representatives: matrices, each as the linear forms of facets
            0..n-1, such as one diagram's orbit representatives.
        h: the h-vector h_0..h_n of the polytope (galerig.betti.h_vector).

    I_n is spanned by the generators of degree e (the products of the
    forms over the minimal non-faces) times the monomials of degree n - e:
    one block of rows per minimal non-face.  A block depends only on n and
    the non-face's forms as a multiset, so it is read from a per-process
    row table (_nonface_rows) keyed by n and the forms sorted, a tuple
    equal for two non-faces exactly when their multisets are, built once
    per key and shared by every matrix, diagram and call of one n.  A key
    holds at most n + 1 of the seven forms (a simple n-polytope has n
    facets at a vertex), which bounds the table of one n; far fewer keys
    are met: 1,502 over every multi-member pentagon Tor class of total 13
    or 14.

    The matrices of one call share their leading blocks, more of them
    when the non-faces whose keys take the fewest distinct values over
    the call come first, so the blocks are eliminated in that order and
    the forward pass (gf2._forward) after each prefix of keys is kept,
    for the call only, in a tree of dicts keyed by block key: a matrix
    continues the pass from its longest prefix already eliminated, and
    phi is read off the last block's pass (gf2.hyperplane_functional),
    with no back-substitution.  phi does not depend on the order of the
    rows, only on their span.

    Raises ValueError unless every matrix is characteristic (checked
    before any row is eliminated), and each I_n has corank 1, h has n + 1
    entries and phi's catalecticant has rank h_d in every degree d
    (check_inverse_system), matrix by matrix in order.  I_d lies in
    Ann(phi)_d, whose codimension is that rank, and dim (S/I)_d = h_d
    because a characteristic matrix is a linear system of parameters
    (Davis-Januszkiewicz), so equal ranks make I = Ann(phi), the Gorenstein
    duality that makes iso_keys complete.  Nothing per matrix outlives the
    call: every phi gets every check.
    """
    for forms in representatives:
        if not is_characteristic(forms, fs):
            raise ValueError("matrix is not characteristic over this face structure")
    n = fs.n
    width = monomial_count(n)
    fulls = [tuple(forms) + VARIABLES for forms in representatives]
    blocks = [[tuple(sorted(forms_on(full))) for full in fulls]
              for forms_on in [itemgetter(*nonface) for nonface in fs.minimal_nonfaces]]
    blocks.sort(key=lambda keys: len(set(keys)))
    root = (None, {})  # (forward state, {next key: node}) per prefix
    phis = []
    for *leading, last in zip(*blocks):
        state, children = root
        for key in leading:
            if key not in children:
                children[key] = (_forward(_nonface_rows(n, key), width, state), {})
            state, children = children[key]
        phi = hyperplane_functional(_nonface_rows(n, last), width, state)
        check_inverse_system(phi, n, h)
        phis.append(phi)
    return phis


# s = (x+y, y, z) and t = (y, z, x) generate GL(3, GF(2)).
_GENERATORS = ((0b011, 0b010, 0b100), (0b010, 0b100, 0b001))


@lru_cache(maxsize=None)
def _word_tree() -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...]]:
    """(tree, elements): a breadth-first spanning tree of GL(3, GF(2)) from
    the identity under the generators, and its 168 elements in tree order,
    the identity first.  Entry i - 1 of tree is (parent, k) for element i
    = g o h, where g is element parent and h = _GENERATORS[k], so that phi
    o (element i) = (phi o g) o h is one pullback of phi o g.  As a
    substitution, g o h sends variable j to h's form j with g substituted
    in it."""
    elements = [(0b001, 0b010, 0b100)]
    seen = set(elements)
    tree = []
    for parent, g in enumerate(elements):  # elements grows while it is walked
        for k, h in enumerate(_GENERATORS):
            gh = tuple(image(form, g) for form in h)
            if gh not in seen:
                seen.add(gh)
                elements.append(gh)
                tree.append((parent, k))
    assert len(elements) == 168, "s and t do not generate GL(3, GF(2))"
    return tuple(tree), tuple(elements)


@lru_cache(maxsize=None)
def _generator_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Byte tables of the degree-n pullbacks of the generators, phi -> phi
    o h: the transpose of h's degree-n substitution table, since bit c of
    phi o h is phi of the image of monomial c."""
    return tuple(byte_tables(transpose(_subst_matrix(h, n), monomial_count(n)))
                 for h in _GENERATORS)


def _chained_orbit(phi: int, n: int) -> list[int]:
    """phi o g for every g in word-tree order, the identity first, filled
    along the tree (_word_tree), one table image per group element."""
    tables = _generator_tables(n)
    orbit = [phi]
    for parent, k in _word_tree()[0]:
        orbit.append(table_image(orbit[parent], tables[k]))
    return orbit


@lru_cache(maxsize=None)
def _orbit_table(n: int):
    """(tables, read) of the map phi -> (phi o g for every g in word-tree
    order), the 168 images stacked in one int of 168 slots, image i in slot
    i: the XOR over k of tables[k][chunk k of phi], 4 bits per chunk, is
    the stacked int, and read(stacked) gives its 168 images.

    The map is linear, so column c is the chained orbit (_chained_orbit)
    of the monomial functional 1 << c: building the table costs the w =
    monomial_count(n) chained fills of its columns and their stacking,
    1.3 to 1.6 times as much as w fills at n = 5..17.  A slot of w <= 64
    bits is widened to 8, 16, 32 or 64 bits, so read is one struct unpack
    of the int's bytes.  struct has no wider integer, so a wider slot holds
    w bits, unpadded, and read converts the int to bytes once and each slot
    from its own byte window, in time linear in the int's size, where a
    shift of the whole int per slot would be quadratic.
    The ceil(w / 4) tables of 16 entries (gf2.byte_tables) hold 15
    nonzero ints of 168 slots each, at most 0.08 MB at n = 6, 0.3 MB at
    n = 9, 0.52 MB at n = 11 and 2.5 MB at n = 17, by sys.getsizeof."""
    width = monomial_count(n)
    slot = next((bits for bits in (8, 16, 32, 64) if width <= bits), width)
    columns = [sum(psi << (i * slot) for i, psi in enumerate(_chained_orbit(1 << c, n)))
               for c in range(width)]
    if slot > 64:
        # slot i's bits start at bit low of the first byte of its window
        windows = [(slice(i * slot >> 3, ((i + 1) * slot + 7) >> 3), i * slot & 7)
                   for i in range(168)]
        mask, from_bytes = (1 << slot) - 1, int.from_bytes

        def read(stacked):
            data = stacked.to_bytes(21 * slot, "little")
            return [(from_bytes(data[window], "little") >> low) & mask for window, low in windows]
    else:
        unpack = Struct(f"<168{'BHIQ'[slot.bit_length() - 4]}").unpack

        def read(stacked):
            return unpack(stacked.to_bytes(21 * slot, "little"))
    return byte_tables(columns, 4), read


# Chained fills per n so far in this process, which decide when the stacked
# table of an n is built (_orbit).
_chained_fills: dict[int, int] = {}


def _orbit(phi: int, n: int) -> Sequence[int]:
    """phi o g for every g in GL(3, GF(2)), in word-tree order, as read:
    168 images, a phi with a stabiliser repeated.

    The first w = monomial_count(n) fills of an n in a process are
    chained along the word tree (_chained_orbit), one table image per group
    element.  After them the stacked table of n (_orbit_table) is built
    once, and every later fill is one lookup per 4 bits of phi and one read
    of the 168 slots, 5 to 9 times faster at n = 5..9 and 2 to 4 times at
    n = 11..17.  A build costs about as much as w chained fills, so a
    process builds a table only once it has spent that much on fills of
    its n, and a one-shot command that fills fewer orbits builds none."""
    fills = _chained_fills.get(n, 0)
    if fills < monomial_count(n):
        _chained_fills[n] = fills + 1
        return _chained_orbit(phi, n)
    tables, read = _orbit_table(n)
    stacked = 0
    for table in tables:
        stacked ^= table[phi & 15]
        phi >>= 4
    return read(stacked)


def iso_keys(n: int, h: tuple[int, ...], functionals: Iterable[int],
             known: dict[int, tuple] | None = None, fill: bool = True) -> list[tuple | None]:
    """(n, h, least phi o g over GL(3, GF(2))) per socle functional phi on
    S_n, in order: equal iff the quotients are isomorphic (module
    docstring), given one h-vector h for the list.  known, which lists of
    one n and h may share (galerig.cli._class_keys shares one per h), maps
    each phi of every orbit filled so far to its key; any other phi has its
    orbit filled along the word tree (_word_tree) and added to known, or,
    with fill=False, gets None, which equals no key."""
    known = {} if known is None else known
    keys = []
    for phi in functionals:
        key = known.get(phi)
        if key is None and fill:
            orbit = _orbit(phi, n)
            key = (n, h, min(orbit))
            known.update(zip(orbit, repeat(key)))
        keys.append(key)
    return keys


def find_graded_iso(qa: GradedQuotient, qb: GradedQuotient):
    """Least substitution, as a row triple, mapping the first ideal onto the
    second, or None.

    The witness is the least g with phi_b o g = phi_a, phi read off I_n,
    which by Gorenstein duality is the least g mapping I_a into I_b in
    every degree; it is read off the chained orbit of phi_b, whose slot i
    is phi_b o (element i of the word tree).  It is certified against the
    full ideals with substitution_maps_ideal, and a disagreement, such as a
    quotient that breaks the duality, raises RuntimeError.
    """
    if qa.n != qb.n or qa.hilbert != qb.hilbert:
        return None
    phi_a, phi_b = quotient_functional(qa), quotient_functional(qb)
    orbit = _chained_orbit(phi_b, qb.n)
    rows = min((g for g, psi in zip(_word_tree()[1], orbit) if psi == phi_a), default=None)
    if rows is not None and not substitution_maps_ideal(rows, qa, qb):
        raise RuntimeError(f"substitution {rows} matches the socle functionals "
                           "but does not map one ideal onto the other")
    return rows
