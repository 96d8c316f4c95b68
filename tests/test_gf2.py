"""GF(2) linear algebra and (degree, vec) polynomials."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from galerig.gf2 import (
    GradedSubspace,
    byte_tables,
    complement,
    echelon,
    format_poly,
    from_lists,
    hyperplane_functional,
    image,
    monomial_count,
    monomials,
    parse_poly,
    product_index,
    rank,
    table_image,
    times_form,
    to_lists,
    transpose,
)

from oracles import (
    echelon_by_scan,
    form_poly,
    gl3,
    poly_multiply,
    poly_to_vec,
    product_columns,
    substitute_linear,
    times_form_columns,
    transpose_by_sums,
)

X, Y, Z = 0b001, 0b010, 0b100  # linear forms; also their degree-1 vecs


# ---------------------------------------------------------------------------
# row reduction (rows are ints, bit c = column c)


def _packed(dense):
    return [sum(v << c for c, v in enumerate(row)) for row in dense]


def test_rref_identity():
    rows = _packed([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # the complement of the complement is the row space, under lowest-bit pivots
    assert echelon(rows, 3) == complement(complement(rows, 3), 3) == [1, 2, 4]
    assert rank([1, 2, 4], 3) == 3


def test_rref_zero():
    assert complement([0, 0], 1) == [1]
    assert echelon([0, 0], 1) == complement([1], 1) == []
    assert rank([0, 0], 1) == 0


def test_rref_rank_one():
    rows = _packed([[1, 1], [1, 1]])
    assert echelon(rows, 2) == complement(rows, 2) == complement([0b11], 2) == [0b11]
    assert rank(rows, 2) == 1


def test_rref_involutive_on_reduced():
    rows = _packed([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    # the span of x + z and y + z: pivots y, then z, under highest bits;
    # x, then y, under lowest bits
    reduced, lowest = echelon(rows, 3), complement(complement(rows, 3), 3)
    assert reduced == [0b011, 0b101] and lowest == [0b101, 0b110]
    assert echelon(reduced, 3) == echelon(lowest, 3) == reduced
    assert complement(complement(lowest, 3), 3) == complement(complement(reduced, 3), 3) == lowest


@given(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(dense, rng):
    shuffled = list(dense)
    rng.shuffle(shuffled)
    assert rank(_packed(dense), 4) == rank(_packed(shuffled), 4)
    # a reduced basis: every pivot column, a row's highest bit, is cleared
    # in every other row, and the order of the rows does not change it
    reduced = echelon(_packed(dense), 4)
    pivots = [row.bit_length() - 1 for row in reduced]
    assert all(((row >> p) & 1) == (i == j)
               for i, p in enumerate(pivots) for j, row in enumerate(reduced))
    assert echelon(_packed(shuffled), 4) == reduced


@st.composite
def row_lists(draw):
    """(rows, width): up to 40 rows over at most 190 columns, C(20, 2), the
    top degree at n = 18, then up to 10 sums of two of them, so that some
    rows reduce to zero."""
    width = draw(st.integers(1, 190))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    sums = draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=10))
    return rows + [rows[i] ^ rows[j] for i, j in sums if i < len(rows) and j < len(rows)], width


@given(row_lists())
@settings(max_examples=300)
def test_echelon_and_rank_equal_the_pivot_scan(rows_and_width):
    rows, width = rows_and_width
    expected = echelon_by_scan(rows)[1]
    # echelon's rows: highest bits strictly increasing, each row clear of
    # every other row's highest bit, and the oracle's span
    reduced = echelon(rows, width)
    pivots = [row.bit_length() - 1 for row in reduced]
    assert pivots == sorted(set(pivots))
    assert all(not (row >> p) & 1 for p in pivots for row in reduced if row.bit_length() - 1 != p)
    assert echelon_by_scan(reduced)[1] == expected
    assert rank(rows, width) == len(expected)


@given(row_lists())
@settings(max_examples=300)
def test_complement_is_the_reduced_annihilator(rows_and_width):
    """complement's vectors vanish on every row, there are width - rank of
    them, and they are reduced under lowest-bit pivots, ascending: the
    pivot scan's form of their own span.  Their complement is the row
    space again, in that form."""
    rows, width = rows_and_width
    vectors = complement(rows, width)
    assert all(not (vec & row).bit_count() & 1 for vec in vectors for row in rows)
    assert len(vectors) == width - rank(rows, width)
    assert echelon_by_scan(vectors)[1] == vectors
    assert complement(vectors, width) == echelon_by_scan(rows)[1]


def test_rank_refuses_rows_wider_than_its_width():
    assert rank([0b111], 3) == 1
    for rows in ([1 << 3], [1, 2, 1 << 10]):
        with pytest.raises(ValueError, match="at or above column 3"):
            rank(rows, 3)


def test_table_image_is_the_image():
    # every width 1..90, so the last table is short for 7 in 8 of them
    rng = random.Random(0)
    for width in range(1, 91):
        columns = [rng.getrandbits(rng.randint(1, 90)) for _ in range(width)]
        tables = byte_tables(columns)
        assert len(tables) == -(-width // 8)
        vecs = [0, (1 << width) - 1, 1 << (width - 1)] + [rng.getrandbits(width)
                                                         for _ in range(30)]
        assert [table_image(v, tables) for v in vecs] == [image(v, columns) for v in vecs]
        with pytest.raises(IndexError):
            table_image(1 << width, tables)


def test_transpose_swaps_rows_and_columns():
    rng = random.Random(3)
    for height in range(1, 40):
        columns = [rng.getrandbits(height) for _ in range(rng.randint(1, 40))]
        rows = transpose(columns, height)
        assert len(rows) == height
        assert all(((rows[r] >> c) & 1) == ((column >> r) & 1)
                   for r in range(height) for c, column in enumerate(columns))
        assert transpose(rows, len(columns)) == tuple(columns)


def test_transpose_equals_the_sums_of_bits():
    """One pass over the set bits gives the transpose that one sum of bits
    per entry gives, on random maps of up to 200 columns of up to 200 bits,
    empty ones and bits at or above the height, which both drop,
    included."""
    rng = random.Random(6)
    for _ in range(200):
        height = rng.randint(0, 200)
        columns = [rng.getrandbits(rng.choice((height, height + 3))) if height else 0
                   for _ in range(rng.randint(0, 200))]
        assert transpose(columns, height) == transpose_by_sums(columns, height)


def _kernel_rows(phi: int, width: int, rng) -> list[int]:
    """A shuffled spanning set of the kernel of the nonzero functional phi,
    with dependent rows: e_c for c outside phi, e_c0 + e_c for c0 its lowest
    bit and c another bit of it, then sums of two of those."""
    c0 = phi & -phi
    rows = [1 << c if not (phi >> c) & 1 else c0 | 1 << c
            for c in range(width) if 1 << c != c0]
    rows += [rng.choice(rows) ^ rng.choice(rows) for _ in range(width // 2)] if rows else []
    rng.shuffle(rows)
    return rows


def test_hyperplane_functional_is_the_annihilator():
    # the forward basis of any spanning set of a hyperplane, dependent
    # rows included, gives back the one functional that vanishes on it, on
    # up to 190 columns, the top degree at n = 18
    rng = random.Random(4)
    for width in range(1, 191, 7):
        for phi in [1, (1 << width) - 1] + [rng.getrandbits(width) | 1 << rng.randrange(width)
                                             for _ in range(8)]:
            rows = _kernel_rows(phi, width, rng)
            assert hyperplane_functional(rows, width) == phi, (width, phi)
            # echelon's reduced rows, as quotient_functional hands them
            assert hyperplane_functional(echelon(rows, width), width) == phi, (width, phi)


def test_complement_of_a_hyperplane_is_its_functional():
    """A hyperplane's complement is its one functional, hyperplane_functional;
    one row fewer or one more leaves two vectors or none, and
    hyperplane_functional refuses the span."""
    rng = random.Random(5)
    for width in range(2, 191, 11):
        phi = rng.getrandbits(width) | 1 << rng.randrange(width)
        rows = _kernel_rows(phi, width, rng)
        assert complement(rows, width) == [hyperplane_functional(rows, width)] == [phi]
        lowest = phi & -phi  # phi(lowest) = 1, so lowest is no row of the kernel
        for other, corank in ((echelon(rows, width)[1:], 2), (rows + [lowest], 0)):
            assert len(complement(other, width)) == corank
            with pytest.raises(ValueError, match=f"corank {corank} "):
                hyperplane_functional(other, width)


def test_hyperplane_functional_refuses_other_coranks():
    for n in (1, 4):
        width = monomial_count(n)
        for rows in ([1 << c for c in range(width)], [1 << c for c in range(2, width)]):
            with pytest.raises(ValueError, match="corank"):
                hyperplane_functional(rows, width)


def test_hyperplane_functional_refuses_rows_wider_than_its_width():
    # the kernel of x on 3 columns, then one row with bit 3 set
    assert hyperplane_functional([0b010, 0b100], 3) == 0b001
    for rows in ([0b010, 0b100, 1 << 3], [1 << 3, 0b010]):
        with pytest.raises(ValueError, match="at or above column 3"):
            hyperplane_functional(rows, 3)


# ---------------------------------------------------------------------------
# monomials


def test_monomial_count_examples():
    assert monomial_count(2) == 6
    assert monomial_count(5) == 21


def test_monomials_are_the_exponent_triples_of_each_degree():
    """The ring is GF(2)[x, y, z]: monomials(d) lists every exponent triple
    of sum d in reverse lexicographic order, an enumeration of all triples
    of entries 0..d, and monomial_count(d) counts them, for d = 0..24; a
    negative degree is refused."""
    for d in range(25):
        triples = sorted((e for e in product(range(d + 1), repeat=3) if sum(e) == d),
                         reverse=True)
        assert monomials(d) == tuple(triples), d
        assert monomial_count(d) == len(monomials(d)), d
    for count in (monomial_count, monomials):
        with pytest.raises(ValueError):
            count(-1)


def test_monomials_graded_lex_descending():
    degree2 = monomials(2)
    assert degree2 == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert len(monomials(5)) == monomial_count(5)


def test_product_index_is_the_product_of_exponents():
    # the one monomial product of the package, read off the lex
    # coordinates, against the oracle's exponent sums, in every split of
    # every degree n <= 26
    for n in range(27):
        for d in range(n + 1):
            assert product_index(d, n - d) == product_columns(n, d), (n, d)


# ---------------------------------------------------------------------------
# polynomial arithmetic: times_form


def _vec(*monos):
    """(degree, vec) of a sum of distinct monomials of one degree."""
    return sum(monos[0]), poly_to_vec(set(monos), sum(monos[0]))


def _times(p, *forms):
    degree, vec = p
    for form in forms:
        vec = times_form(vec, degree, form)
        degree += 1
    return degree, vec


def test_square_in_characteristic_two():
    assert _times((1, Y | Z), Y | Z) == _vec((0, 2, 0), (0, 0, 2))


def test_cube_binomial():
    assert _times((1, X | Z), X | Z, X | Z) == _vec((3, 0, 0), (2, 0, 1), (1, 0, 2), (0, 0, 3))


def test_multiply_by_one():
    for form in range(1, 8):
        assert _times((0, 1), form) == (1, form)


forms = st.integers(1, 7)


@st.composite
def polys(draw, max_degree=4):
    degree = draw(st.integers(0, max_degree))
    return degree, draw(st.integers(0, (1 << monomial_count(degree)) - 1))


@given(polys(), forms, forms)
def test_multiply_commutative(p, f, g):
    assert _times(p, f, g) == _times(p, g, f)


@given(polys(), st.lists(forms, max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_multiply_associative(p, factors, rng):
    """A product of forms does not depend on the order of the factors."""
    shuffled = list(factors)
    rng.shuffle(shuffled)
    assert _times(p, *factors) == _times(p, *shuffled)


@given(polys(), st.integers(min_value=0), forms, forms)
@settings(max_examples=50)
def test_multiply_distributive(p, bits, f, g):
    degree, vec = p
    other = bits % (1 << monomial_count(degree))
    assert times_form(vec ^ other, degree, f) == \
        times_form(vec, degree, f) ^ times_form(other, degree, f)
    assert times_form(vec, degree, f ^ g) == \
        times_form(vec, degree, f) ^ times_form(vec, degree, g)


def test_times_form_is_the_image_over_the_product_columns():
    """times_form's block shifts are multiplication by each form 0..7 in
    every degree d <= 26: every monomial goes to its column over the
    exponent sums (oracles.times_form_columns), and random polynomials to
    their images."""
    rng = random.Random(7)
    for d in range(27):
        width = monomial_count(d)
        for form in range(8):
            columns = times_form_columns(d, form)
            assert tuple(times_form(1 << c, d, form) for c in range(width)) == columns, (d, form)
            for vec in [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(5)]:
                assert times_form(vec, d, form) == image(vec, columns), (d, form)


@given(polys(max_degree=7), forms)
@settings(max_examples=300)
def test_times_form_matches_oracle_product(p, form):
    degree, vec = p
    monos = frozenset(m for c, m in enumerate(monomials(degree)) if (vec >> c) & 1)
    product = poly_multiply(monos, form_poly(form))
    assert times_form(vec, degree, form) == poly_to_vec(product, degree + 1)


# ---------------------------------------------------------------------------
# substitution oracle (frozenset polynomials)


def _poly(*monos):
    return frozenset(monos)


X_P, Y_P, Z_P = (form_poly(v) for v in (X, Y, Z))


def _random_poly(draw_monos):
    return frozenset(tuple(m) for m in draw_monos)


small_polys = st.builds(
    _random_poly,
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
             max_size=4),
)


def test_substitute_example():
    # x -> x+z applied to xz
    images = (X_P | Z_P, Y_P, Z_P)
    assert substitute_linear(_poly((1, 0, 1)), images) == _poly((1, 0, 1), (0, 0, 2))


def test_substitute_identity():
    p = _poly((2, 1, 0), (0, 1, 3))
    assert substitute_linear(p, (X_P, Y_P, Z_P)) == p


def test_substitute_swap_symmetric_monomial():
    assert substitute_linear(_poly((1, 1, 0)), (Y_P, X_P, Z_P)) == _poly((1, 1, 0))


def _images_from_rows(rows):
    return tuple(form_poly(r) for r in rows)


@given(st.sampled_from(gl3()), st.sampled_from(gl3()), small_polys)
@settings(max_examples=60)
def test_substitution_composes(g, h, p):
    """Applying g then h equals applying the composite substitution."""
    g_imgs, h_imgs = _images_from_rows(g), _images_from_rows(h)
    step = substitute_linear(substitute_linear(p, g_imgs), h_imgs)
    composed = tuple(substitute_linear(img, h_imgs) for img in g_imgs)
    assert step == substitute_linear(p, composed)


def test_substitute_rejects_nonlinear_image():
    with pytest.raises(ValueError):
        substitute_linear(X_P, (_poly((2, 0, 0)), Y_P, Z_P))


# ---------------------------------------------------------------------------
# graded subspaces


def _space(*vecs_by_degree):
    return GradedSubspace.from_spans(vecs_by_degree)


def test_subspace_membership():
    space = _space([], [], [parse_poly("xz")[1]])
    assert space.contains(*parse_poly("xz"))
    assert not space.contains(*parse_poly("x^2"))


def test_subspace_contains_zero_and_range_check():
    space = _space([], [X])
    assert space.contains(1, 0)
    with pytest.raises(ValueError):
        space.contains(*parse_poly("xy"))  # degree 2 above stored range


def test_subspace_equality_is_equivalence():
    """Components are reduced echelon forms, so == is subspace equality."""
    s1 = _space([], [X, Y])
    s2 = _space([], [X ^ Y, Y])
    s3 = _space([], [X, X ^ Y])
    assert s1 == s1
    assert s1 == s2 and s2 == s1
    assert s2 == s3 and s1 == s3
    assert s1 != _space([], [X])
    assert s1 != _space([], [X, Y], [])


def test_subspace_is_hashable_by_its_components():
    assert len({_space([], [X, Y]), _space([], [X ^ Y, Y])}) == 1


def test_from_spans_is_a_classmethod_on_the_class():
    # the benchmark tracer unwraps and rewraps it through the class __dict__
    assert isinstance(GradedSubspace.__dict__["from_spans"], classmethod)


def test_homogeneous_degree_rejects_mixed():
    with pytest.raises(ValueError):
        parse_poly("x+xy")
    with pytest.raises(ValueError, match="not homogeneous"):
        parse_poly("x+1")


# ---------------------------------------------------------------------------
# text and list forms


def test_parse_reference_table_notation():
    assert parse_poly("x^3y+yz^3") == _vec((3, 1, 0), (0, 1, 3))
    assert parse_poly("x^{2}y^{2}+y^{2}z^{2}") == _vec((2, 2, 0), (0, 2, 2))
    assert parse_poly("xz") == _vec((1, 0, 1))
    assert parse_poly("x+x") == (1, 0)
    assert parse_poly("1") == (0, 1) and parse_poly("1+1") == (0, 0)
    with pytest.raises(ValueError, match="cannot parse '0'"):
        parse_poly("0")


def test_parse_rejects_bad_exponent():
    with pytest.raises(ValueError):
        parse_poly("xy^2+y^z+yz^2")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly("x+w")


def test_serialization_order():
    degree, vec = _vec((0, 1, 3), (3, 1, 0))
    assert to_lists(degree, vec) == [[3, 1, 0], [0, 1, 3]]
    assert from_lists(degree, to_lists(degree, vec)) == vec
    # a monomial of another degree, a wrong length, a negative exponent
    for bad in ([1, 1, 0], [4, 0], [2, 1, 1, 0], [5, -1, 0]):
        with pytest.raises(ValueError, match=f"is not a monomial of degree {degree}"):
            from_lists(degree, [[3, 1, 0], bad])


def test_format_round_trip():
    p = parse_poly("x^3y+yz^3")
    assert format_poly(p) == "x^3y+yz^3"
    assert parse_poly(format_poly(p)) == p
    assert format_poly((0, 1)) == "1" and format_poly((2, 0)) == "0"


def test_vec_round_trip():
    """Every vector of a degree survives to_lists/from_lists and
    format_poly/parse_poly."""
    for degree in range(3):
        for vec in range(1, 1 << monomial_count(degree)):
            assert from_lists(degree, to_lists(degree, vec)) == vec
            assert parse_poly(format_poly((degree, vec))) == (degree, vec)
