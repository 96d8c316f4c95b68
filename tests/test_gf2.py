"""GF(2) linear algebra and (degree, vec) polynomials."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from galerig.gf2 import (
    GradedSubspace,
    byte_tables,
    echelon,
    format_poly,
    from_lists,
    image,
    monomial_count,
    monomials,
    parse_poly,
    rank,
    table_image,
    times_form,
    to_lists,
)

from oracles import echelon_by_scan, form_poly, poly_multiply, poly_to_vec, substitute_linear

X, Y, Z = 0b001, 0b010, 0b100  # linear forms; also their degree-1 vecs


# ---------------------------------------------------------------------------
# row reduction (rows are ints, bit c = column c)


def _packed(dense):
    return [sum(v << c for c, v in enumerate(row)) for row in dense]


def test_rref_identity():
    pivots, reduced = echelon(_packed([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert pivots == [0, 1, 2] and reduced == [1, 2, 4]
    assert rank([1, 2, 4]) == 3


def test_rref_zero():
    assert echelon([0, 0]) == ([], [])
    assert rank([0, 0]) == 0


def test_rref_rank_one():
    assert echelon(_packed([[1, 1], [1, 1]])) == ([0], [0b11])
    assert rank(_packed([[1, 1], [1, 1]])) == 1


def test_rref_involutive_on_reduced():
    pivots, reduced = echelon(_packed([[1, 0, 1], [0, 1, 1], [1, 1, 0]]))
    assert echelon(reduced) == (pivots, reduced)


@given(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(dense, rng):
    shuffled = list(dense)
    rng.shuffle(shuffled)
    assert rank(_packed(dense)) == rank(_packed(shuffled))
    # a reduced basis: every pivot column is cleared in every other row
    pivots, reduced = echelon(_packed(dense))
    assert all(((row >> p) & 1) == (i == j)
               for i, p in enumerate(pivots) for j, row in enumerate(reduced))


@st.composite
def row_lists(draw):
    """Up to 40 rows over at most 90 columns, then up to 10 sums of two of
    them, so that some rows reduce to zero."""
    width = draw(st.integers(1, 90))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    sums = draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=10))
    return rows + [rows[i] ^ rows[j] for i, j in sums if i < len(rows) and j < len(rows)]


@given(row_lists())
@settings(max_examples=300)
def test_echelon_and_rank_equal_the_pivot_scan(rows):
    expected = echelon_by_scan(rows)
    assert echelon(rows) == expected
    assert rank(rows) == len(expected[1])


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


# ---------------------------------------------------------------------------
# monomials


def test_monomial_count_examples():
    assert monomial_count(3, 2) == 6
    assert monomial_count(3, 5) == 21
    assert monomial_count(7, 0) == 1


def test_monomials_graded_lex_descending():
    degree2 = monomials(3, 2)
    assert degree2 == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert len(monomials(3, 5)) == monomial_count(3, 5)


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
    return degree, draw(st.integers(0, (1 << monomial_count(3, degree)) - 1))


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
    other = bits % (1 << monomial_count(3, degree))
    assert times_form(vec ^ other, degree, f) == \
        times_form(vec, degree, f) ^ times_form(other, degree, f)
    assert times_form(vec, degree, f ^ g) == \
        times_form(vec, degree, f) ^ times_form(vec, degree, g)


@given(polys(max_degree=7), forms)
@settings(max_examples=300)
def test_times_form_matches_oracle_product(p, form):
    degree, vec = p
    monos = frozenset(m for c, m in enumerate(monomials(3, degree)) if (vec >> c) & 1)
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


def _gl3_elements():
    out = []
    for r0 in range(1, 8):
        for r1 in range(1, 8):
            if r1 == r0:
                continue
            for r2 in range(1, 8):
                if r2 not in (r0, r1, r0 ^ r1):
                    out.append((r0, r1, r2))
    return out


def _images_from_rows(rows):
    return tuple(form_poly(r) for r in rows)


@given(st.sampled_from(_gl3_elements()), st.sampled_from(_gl3_elements()), small_polys)
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


def test_homogeneous_degree_rejects_mixed():
    with pytest.raises(ValueError):
        parse_poly("x+xy")


# ---------------------------------------------------------------------------
# text and list forms


def test_parse_reference_table_notation():
    assert parse_poly("x^3y+yz^3") == _vec((3, 1, 0), (0, 1, 3))
    assert parse_poly("x^{2}y^{2}+y^{2}z^{2}") == _vec((2, 2, 0), (0, 2, 2))
    assert parse_poly("xz") == _vec((1, 0, 1))
    assert parse_poly("x+x") == (1, 0)


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
    with pytest.raises(ValueError):
        from_lists(degree, [[1, 1, 0]])  # a monomial of another degree


def test_format_round_trip():
    p = parse_poly("x^3y+yz^3")
    assert format_poly(p) == "x^3y+yz^3"
    assert parse_poly(format_poly(p)) == p
    assert format_poly((0, 1)) == "1" and format_poly((2, 0)) == "0"


def test_vec_round_trip():
    """Every vector of a degree survives to_lists/from_lists and
    format_poly/parse_poly."""
    for degree in range(3):
        for vec in range(1, 1 << monomial_count(3, degree)):
            assert from_lists(degree, to_lists(degree, vec)) == vec
            if degree:
                assert parse_poly(format_poly((degree, vec))) == (degree, vec)
