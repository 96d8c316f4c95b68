"""GF(2) linear algebra and polynomial bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st

from galerig.gf2 import (
    GradedSubspace,
    echelon,
    format_poly,
    homogeneous_degree,
    monomial_count,
    monomials,
    parse_poly,
    poly,
    poly_from_lists,
    poly_multiply,
    poly_to_lists,
    poly_to_vec,
    rank,
    subspace_equal,
    vec_to_poly,
)

from oracles import substitute_linear

X = frozenset({(1, 0, 0)})
Y = frozenset({(0, 1, 0)})
Z = frozenset({(0, 0, 1)})


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
# polynomial arithmetic


def test_square_in_characteristic_two():
    yz = Y ^ Z
    assert poly_multiply(yz, yz) == poly([(0, 2, 0), (0, 0, 2)])


def test_cube_binomial():
    xz = X ^ Z
    cube = poly_multiply(poly_multiply(xz, xz), xz)
    assert cube == poly([(3, 0, 0), (2, 0, 1), (1, 0, 2), (0, 0, 3)])


def test_multiply_by_one():
    one = poly([(0, 0, 0)])
    p = poly([(1, 1, 0), (0, 0, 2)])
    assert poly_multiply(p, one) == p


def _random_poly(draw_monos):
    return frozenset(tuple(m) for m in draw_monos)


small_polys = st.builds(
    _random_poly,
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
             max_size=4),
)


@given(small_polys, small_polys)
def test_multiply_commutative(p, q):
    assert poly_multiply(p, q) == poly_multiply(q, p)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=50)
def test_multiply_associative(p, q, r):
    assert poly_multiply(poly_multiply(p, q), r) == poly_multiply(p, poly_multiply(q, r))


@given(small_polys, small_polys, small_polys)
@settings(max_examples=50)
def test_multiply_distributive(p, q, r):
    assert poly_multiply(p, q ^ r) == poly_multiply(p, q) ^ poly_multiply(p, r)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_example():
    # x -> x+z applied to xz
    images = (X | Z, Y, Z)
    assert substitute_linear(poly([(1, 0, 1)]), images) == poly([(1, 0, 1), (0, 0, 2)])


def test_substitute_identity():
    p = poly([(2, 1, 0), (0, 1, 3)])
    assert substitute_linear(p, (X, Y, Z)) == p


def test_substitute_swap_symmetric_monomial():
    assert substitute_linear(poly([(1, 1, 0)]), (Y, X, Z)) == poly([(1, 1, 0)])


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
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return tuple(frozenset(units[j] for j in range(3) if (r >> j) & 1) for r in rows)


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
        substitute_linear(X, (poly([(2, 0, 0)]), Y, Z))


# ---------------------------------------------------------------------------
# graded subspaces


def _space(*polys_by_degree):
    return GradedSubspace.from_spans(3, polys_by_degree)


def test_subspace_membership():
    space = _space([], [], [poly([(1, 0, 1)])])
    assert space.contains(poly([(1, 0, 1)]))
    assert not space.contains(poly([(2, 0, 0)]))


def test_subspace_contains_zero_and_range_check():
    space = _space([], [X])
    assert space.contains(frozenset())
    with pytest.raises(ValueError):
        space.contains(poly([(1, 1, 0)]))  # degree 2 above stored range


def test_subspace_equality_is_equivalence():
    s1 = _space([], [X, Y])
    s2 = _space([], [X ^ Y, Y])
    s3 = _space([], [X, X ^ Y])
    assert subspace_equal(s1, s1)
    assert subspace_equal(s1, s2) and subspace_equal(s2, s1)
    assert subspace_equal(s1, s2) and subspace_equal(s2, s3) and subspace_equal(s1, s3)
    assert s1 == s2 == s3  # canonical echelon components
    assert not subspace_equal(s1, _space([], [X]))


def test_homogeneous_degree_rejects_mixed():
    with pytest.raises(ValueError):
        homogeneous_degree(poly([(1, 0, 0), (1, 1, 0)]))


# ---------------------------------------------------------------------------
# text and list forms


def test_parse_reference_table_notation():
    assert parse_poly("x^3y+yz^3") == poly([(3, 1, 0), (0, 1, 3)])
    assert parse_poly("x^{2}y^{2}+y^{2}z^{2}") == poly([(2, 2, 0), (0, 2, 2)])
    assert parse_poly("xz") == poly([(1, 0, 1)])


def test_parse_rejects_bad_exponent():
    with pytest.raises(ValueError):
        parse_poly("xy^2+y^z+yz^2")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly("x+w")


def test_serialization_order():
    p = poly([(0, 1, 3), (3, 1, 0)])
    assert poly_to_lists(p) == [[3, 1, 0], [0, 1, 3]]
    assert poly_from_lists(poly_to_lists(p)) == p


def test_format_round_trip():
    p = parse_poly("x^3y+yz^3")
    assert parse_poly(format_poly(p)) == p


def test_vec_round_trip():
    p = poly([(2, 0, 0), (0, 1, 1)])
    assert vec_to_poly(poly_to_vec(p, 3, 2), 3, 2) == p
