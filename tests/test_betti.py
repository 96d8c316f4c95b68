"""Bigraded Betti tables, Betti groups, Tor comparison, sphere-product
decomposition, quasitoric support."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import galerig.betti
from galerig.betti import (
    beta_first_row,
    betti_group,
    betti_table,
    h_vector,
    supports_quasitoric,
    window_sums,
)
from galerig.charmat import canonical_charmats, enumerate_charmats
from galerig.cohomology import quotient_presentation
from galerig.gale import GaleDiagram, canonical_weights, face_structure

import oracles
from oracles import adjacent_sum_multiset, sphere_product_decomposition, tor_equivalent

P = GaleDiagram((3, 1, 2, 1, 1))
Q = GaleDiagram((2, 2, 2, 1, 1))
PENTAGON = GaleDiagram((1, 1, 1, 1, 1))

weight_vectors = st.lists(st.integers(1, 9), min_size=5, max_size=5).map(tuple)


def test_beta_first_row_examples():
    assert beta_first_row(P) == {2: 1, 3: 2, 4: 2}
    assert beta_first_row(PENTAGON) == {2: 5}
    assert beta_first_row(Q) == {2: 1, 3: 2, 4: 2}


def test_window_sums_order():
    assert window_sums((3, 1, 2, 1, 1)) == (4, 3, 3, 2, 4)
    assert adjacent_sum_multiset((3, 1, 2, 1, 1)) == (2, 3, 3, 4, 4)


def test_betti_table_examples():
    table = betti_table(P)
    assert table.get((0, 0), 0) == 1
    assert table.get((2, 8), 0) == 2
    assert table.get((2, 10), 0) == 2
    assert table.get((2, 12), 0) == 1
    assert table.get((3, 16), 0) == 1

    small = betti_table(PENTAGON)
    assert small.get((2, 6), 0) == 5
    assert small.get((3, 10), 0) == 1

    assert betti_table(GaleDiagram((2, 1, 4, 1, 3))).get((0, 0), 0) == 1


@given(weight_vectors)
def test_betti_duality_and_row_sums(w):
    diagram = GaleDiagram(w)
    table = betti_table(diagram)
    m = diagram.m
    for (i, twoj), b in table.items():
        assert table.get((3 - i, 2 * m - twoj), 0) == b
    assert [sum(b for (row, _), b in table.items() if row == i)
            for i in range(4)] == [1, 5, 5, 1]
    total = sum(table.values())
    assert total == 2 + 2 * 5


def test_betti_json_sorted():
    table = betti_table(P)
    assert list(table) == sorted(table)


def test_h_vector_is_the_hilbert_function_of_every_quotient():
    """h_vector, read off the window sums, is the Hilbert function of a
    saturated quotient and the h-vector of exhaustive face counting, and is
    palindromic with h_0 = h_n = 1, on every canonical pentagon of total
    <= 9 and heptagon of total <= 11, which covers every diagram whose keys
    test_cohomology compares."""
    diagrams = oracles.canonical_diagrams(5, 9) + oracles.canonical_diagrams(7, 11)
    assert len(diagrams) == 20 + 34
    for weights in diagrams:
        diagram = GaleDiagram(weights)
        fs = face_structure(diagram)
        h = h_vector(diagram)
        assert len(h) == diagram.n + 1 and h[0] == h[-1] == 1 and h == h[::-1], weights
        assert h == oracles.face_counts(diagram)[1], weights
        assert all(quotient_presentation(fs, b).hilbert == h for b in enumerate_charmats(fs))


def test_tor_class_members_share_one_h_vector():
    """report keys every member of a Tor class against one h-vector: the
    members share one Betti table, hence one h, which is the h-vector of
    the exhaustive face count, on every multi-member pentagon class of
    total <= 12."""
    classes = sorted(c for c in {betti_group(w) for w in oracles.canonical_diagrams(5, 12)}
                     if len(c) > 1)
    assert len(classes) == 26
    for members in classes:
        h = {h_vector(GaleDiagram(w)) for w in members}
        assert h == {oracles.face_counts(GaleDiagram(members[0]))[1]}, members


def test_betti_group_of_heptagons_is_the_composition_search():
    """betti_group solves one arrangement of the window sums per rotation
    and reflection class; on the 34 canonical heptagons of total <= 11 it
    is every composition of the total with the same sorted window sums."""
    diagrams = oracles.canonical_diagrams(7, 11)
    assert len(diagrams) == 34
    for weights in diagrams:
        target = oracles.adjacent_sum_multiset(weights)
        expected = {canonical_weights(w) for w in oracles.compositions(sum(weights), 7)
                    if oracles.adjacent_sum_multiset(w) == target}
        assert betti_group(weights) == tuple(sorted(expected)), weights


def test_h_vector_equals_the_betti_table_route():
    """h_vector, read off the window sums, is the h-vector divided out of
    the whole Betti table, on every canonical pentagon and heptagon of
    total <= 12."""
    diagrams = oracles.canonical_diagrams(5, 12) + oracles.canonical_diagrams(7, 12)
    assert len(diagrams) == 100 + 72
    for weights in diagrams:
        diagram = GaleDiagram(weights)
        assert h_vector(diagram) == oracles.h_vector_by_betti_table(diagram), weights


def test_h_vector_refuses_an_inexact_division(monkeypatch):
    sums = galerig.betti.window_sums(P.weights)
    monkeypatch.setattr(galerig.betti, "window_sums", lambda w: sums + (2,))
    with pytest.raises(ValueError, match="above degree 5"):
        h_vector(P)


def test_heptagon_table_and_spheres():
    heptagon = GaleDiagram((1, 1, 1, 1, 1, 1, 1))
    table = betti_table(heptagon)
    assert [sum(b for (row, _), b in table.items() if row == i)
            for i in range(4)] == [1, 7, 7, 1]
    assert sum(table.values()) == 2 + 2 * 7
    for (i, twoj), b in table.items():
        assert table.get((3 - i, 2 * heptagon.m - twoj), 0) == b
    assert sphere_product_decomposition(heptagon) == ((5, 6),) * 7


# ---------------------------------------------------------------------------
# Tor comparison


def test_tor_equivalent_examples():
    assert tor_equivalent((3, 1, 2, 1, 1), (2, 2, 2, 1, 1)) is True
    assert tor_equivalent((3, 1, 2, 1, 1), (3, 1, 2, 1, 1)) is True
    assert tor_equivalent((3, 1, 2, 1, 1), (4, 1, 1, 1, 1)) is False


def test_tor_equivalent_rejects_other_lengths():
    with pytest.raises(ValueError):
        tor_equivalent((1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1))


@given(weight_vectors, weight_vectors, weight_vectors)
@settings(max_examples=100)
def test_tor_equivalent_is_equivalence(u, v, w):
    assert tor_equivalent(u, u)
    assert tor_equivalent(u, v) == tor_equivalent(v, u)
    if tor_equivalent(u, v) and tor_equivalent(v, w):
        assert tor_equivalent(u, w)


# ---------------------------------------------------------------------------
# sphere products


def test_sphere_products_pentagon():
    assert sphere_product_decomposition(PENTAGON) == ((3, 4),) * 5


def test_sphere_products_fixture_polytopes():
    expected = ((3, 10), (5, 8), (5, 8), (6, 7), (6, 7))
    assert sphere_product_decomposition(P) == expected
    assert sphere_product_decomposition(Q) == expected


@given(weight_vectors)
@settings(max_examples=60)
def test_sphere_product_pair_invariants(w):
    diagram = GaleDiagram(w)
    pairs = sphere_product_decomposition(diagram)
    assert len(pairs) == 5
    for p, q in pairs:
        assert 3 <= p <= q
        assert p + q == diagram.m + diagram.n


# ---------------------------------------------------------------------------
# quasitoric support


def test_supports_quasitoric():
    assert supports_quasitoric(2) is True
    assert supports_quasitoric(3) is True
    assert supports_quasitoric(4) is False
    with pytest.raises(ValueError):
        supports_quasitoric(1)


def test_no_nonagon_has_a_characteristic_matrix():
    """supports_quasitoric(4) is False on a range: none of the 133
    canonical 9-gon diagrams of total <= 14 has a mod-2 characteristic
    matrix, so no small cover, let alone a quasitoric manifold, lies over
    them."""
    diagrams = oracles.canonical_diagrams(9, 14)
    assert len(diagrams) == 133
    for weights in diagrams:
        assert canonical_charmats(face_structure(GaleDiagram(weights))) == {}, weights


def test_every_mod2_matrix_lifts_by_its_zero_one_entries():
    """The 0/1 lift of every enumerated mod-2 matrix is an integral
    characteristic matrix: each vertex minor, an integer determinant on
    the vertices that origin_in_hull_exact finds, is +-1.  On the
    diagrams of test_cohomology's key_range (canonical pentagons of total
    <= 8, heptagons of total <= 11, and the members of every multi-member
    Tor class of total <= 9) and the flagship pair, as written; the
    flagship pair, (4,1,1,1,1) and (2,2,1,1,1,1,1) alone give 1,272
    minors."""
    def minors(diagrams):
        found = []
        for weights in diagrams:
            diagram = GaleDiagram(weights)
            for forms in enumerate_charmats(face_structure(diagram)):
                found += oracles.vertex_minors(diagram, forms)
        return found

    assert len(minors([P.weights, Q.weights, (4, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1, 1)])) == 1272
    diagrams = set(oracles.canonical_diagrams(5, 8) + oracles.canonical_diagrams(7, 11))
    for weights in oracles.canonical_diagrams(5, 9):
        members = betti_group(weights)
        if len(members) > 1:
            diagrams.update(members)
    diagrams.update((P.weights, Q.weights))
    found = minors(sorted(diagrams))
    assert found and set(map(abs, found)) == {1}


@pytest.mark.parametrize("k", range(2, 13))
def test_every_label_pair_lies_in_a_hull_triple(k):
    """Any two labels of the (2k+1)-gon lie in a label triple whose hull
    holds the origin, so facets with different labels share a vertex
    complement and carry different forms: for k >= 4 the 2k + 1 >= 9
    labels would need 9 distinct nonzero forms of GF(2)^3, which has 7."""
    labels = range(1, 2 * k + 2)
    for a, b in combinations(labels, 2):
        assert any(oracles.origin_in_hull_exact({a, b, c}, k)
                   for c in labels if c not in (a, b)), (a, b)


def test_every_heptagon_has_two_matrices_constant_on_labels():
    """Each of the 281 canonical heptagons of total <= 14 has exactly 2
    mod-2 matrices, and in both the 7 labels take the 7 nonzero forms, one
    form per label on every facet of it."""
    heptagons = oracles.canonical_diagrams(7, 14)
    assert len(heptagons) == 281
    for weights in heptagons:
        fs = face_structure(GaleDiagram(weights))
        matrices = enumerate_charmats(fs)
        assert len(matrices) == 2, weights
        for forms in matrices:
            pairs = set(zip(fs.labels, oracles.facet_forms(forms)))
            assert len(pairs) == 7, weights  # every label is on some facet
            assert {form for _, form in pairs} == set(range(1, 8)), weights
