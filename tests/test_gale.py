"""Gale diagrams, the arc criterion, and face structures."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from galerig.betti import h_vector
from galerig.gale import (
    _PINNED_ORDERS,
    FaceStructure,
    GaleDiagram,
    _hull_triples,
    _vertex_complements,
    canonical_weights,
    face_structure,
    facet_labels,
    origin_in_hull,
    weight_symmetries,
)

import oracles

P = GaleDiagram((3, 1, 2, 1, 1))
Q = GaleDiagram((2, 2, 2, 1, 1))
PENTAGON = GaleDiagram((1, 1, 1, 1, 1))

weight_vectors = st.lists(st.integers(1, 6), min_size=5, max_size=5).map(tuple)


def test_weight_symmetries_are_the_images_that_keep_the_word():
    """weight_symmetries lists distinct vertex maps, none the identity,
    each keeping every weight, one for each rotation or reflection image of
    the word, as canonical_weights slices them, that is the word itself
    (counted once more for the identity), on every canonical pentagon and
    heptagon of total <= 10."""
    assert weight_symmetries((2, 2, 2, 1, 1)) == ((2, 1, 0, 4, 3),)
    assert weight_symmetries((3, 1, 2, 1, 1)) == ()
    assert len(weight_symmetries((1, 1, 1, 1, 1))) == 9
    for w in oracles.canonical_diagrams(5, 10) + oracles.canonical_diagrams(7, 10):
        maps = weight_symmetries(w)
        nv = len(w)
        assert len(set(maps)) == len(maps) and tuple(range(nv)) not in maps, w
        assert all(sorted(p) == list(range(nv)) for p in maps), w
        assert all(w[p[i]] == w[i] for p in maps for i in range(nv)), w
        images = [word[s:] + word[:s] for word in (w, w[::-1]) for s in range(nv)]
        assert images.count(w) == len(maps) + 1, w


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_examples():
    assert canonical_weights([1, 2, 1, 1, 3]) == (3, 1, 2, 1, 1)
    assert canonical_weights([1, 1, 1, 1, 1]) == (1, 1, 1, 1, 1)
    assert canonical_weights([1, 1, 2, 2, 2]) == (2, 2, 2, 1, 1)


def test_canonical_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_weights([1, 2, 1, 1])  # even length
    with pytest.raises(ValueError):
        canonical_weights([1, 2, 0, 1, 1])  # non-positive entry
    with pytest.raises(ValueError):
        canonical_weights([1, 1, 1])  # too short


def test_bool_weights_rejected():
    with pytest.raises(ValueError, match="positive integers"):
        canonical_weights((True, 2, 1, 1, 1))
    with pytest.raises(ValueError, match="positive integers"):
        GaleDiagram((True,) * 5)


# ---------------------------------------------------------------------------
# the diagram and face-structure records


def test_diagram_is_immutable():
    with pytest.raises(AttributeError):
        P.weights = (1, 1, 1, 1, 1)
    with pytest.raises(AttributeError):
        del P.weights
    assert P.weights == (3, 1, 2, 1, 1)


def test_diagram_is_a_dict_key_equal_by_weights():
    same = GaleDiagram([3, 1, 2, 1, 1])
    assert same == P and same is not P and same != Q
    assert same.weights == (3, 1, 2, 1, 1)
    assert {P: "P", Q: "Q"}[same] == "P"
    assert len({P, same, Q}) == 2
    assert P != (3, 1, 2, 1, 1)


def test_face_structure_equality_and_sizes():
    fs = face_structure(P)
    assert fs == face_structure(GaleDiagram((3, 1, 2, 1, 1)))
    assert fs != face_structure(Q)
    assert (fs.m, fs.n) == (8, 5)
    assert FaceStructure(fs.labels, fs.minimal_nonfaces, fs.vertex_complements) == fs


@given(weight_vectors, st.integers(0, 4), st.booleans())
def test_canonical_invariant_under_symmetry(w, shift, flip):
    image = w[shift:] + w[:shift]
    if flip:
        image = image[::-1]
    assert canonical_weights(image) == canonical_weights(w)
    assert canonical_weights(canonical_weights(w)) == canonical_weights(w)


# ---------------------------------------------------------------------------
# origin-in-hull: arc test against the exact rational oracle


@pytest.mark.parametrize("k", [2, 3, 4])
def test_arc_criterion_matches_exact_hull_oracle(k):
    vertices = list(range(1, 2 * k + 2))
    for size in range(len(vertices) + 1):
        for subset in combinations(vertices, size):
            assert origin_in_hull(subset, k) == oracles.origin_in_hull_exact(subset, k), \
                f"arc test disagrees with exact geometry on {subset}, k={k}"


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_hull_table_is_the_exact_hull_triples(k):
    """The per-k table that face_structure looks facet triples up in holds
    label triples only, never one entry per label subset."""
    table = _hull_triples(k)
    assert table == {t for t in combinations(range(1, 2 * k + 2), 3)
                     if oracles.origin_in_hull_exact(t, k)}
    assert len(table) <= comb(2 * k + 1, 3)


def test_hull_table_serves_a_large_polygon():
    # k = 15: 31 labels, whose 2^31 label subsets no table could hold; one
    # vertex per unit of the h-vector
    diagram = GaleDiagram((1,) * 31)
    assert len(face_structure(diagram).vertex_complements) == sum(h_vector(diagram))


def test_origin_in_hull_examples():
    assert origin_in_hull({2, 4, 5}, 2) is True
    assert origin_in_hull({1, 2}, 2) is False
    assert origin_in_hull(set(), 2) is False


def test_origin_in_hull_rejects_bad_label():
    with pytest.raises(ValueError):
        origin_in_hull({6}, 2)


# ---------------------------------------------------------------------------
# faces


def test_is_face_examples():
    # the five facets over pentagon vertices 1 and 3 meet in a vertex
    assert oracles.is_face({1, 2, 3, 4, 5}, P) is True
    assert oracles.is_face(set(), P) is True
    # the facets named F4 and F5 sit at positions 8 and 6 of the pinned order
    assert oracles.is_face({8, 6}, P) is False


def test_is_face_rejects_bad_index():
    with pytest.raises(ValueError):
        oracles.is_face({9}, P)


def test_is_face_monotone():
    labels = facet_labels(P)
    for face in oracles.maximal_faces(face_structure(P)):
        for size in range(len(face)):
            for subset in combinations(sorted(face), size):
                assert oracles.is_face(subset, P, labels)


def test_minimal_nonfaces_examples():
    fs = face_structure(P)
    assert [len(s) for s in fs.minimal_nonfaces] == [4, 3, 3, 2, 4]
    assert fs.minimal_nonfaces[3] == (5, 7)  # facets F5 and F4

    assert [len(s) for s in face_structure(Q).minimal_nonfaces] == [4, 4, 3, 2, 3]

    pent = face_structure(PENTAGON)
    for i, nonface in enumerate(pent.minimal_nonfaces, start=1):
        expected_labels = {i, i % 5 + 1}
        assert {pent.labels[j] for j in nonface} == expected_labels


def test_minimal_nonfaces_pairwise_incomparable():
    for diagram in (P, Q, PENTAGON, GaleDiagram((2, 1, 3, 1, 2)),
                    GaleDiagram((1, 1, 1, 1, 1, 1, 1))):
        sets = [set(s) for s in face_structure(diagram).minimal_nonfaces]
        for a in sets:
            for b in sets:
                assert a == b or not a <= b


@pytest.mark.parametrize("weights", oracles.canonical_diagrams(5, 9)
                         + oracles.canonical_diagrams(7, 9))
def test_minimal_nonfaces_match_brute_force(weights):
    diagram = GaleDiagram(weights)
    fs = face_structure(diagram)
    assert {oracles.one_based(s) for s in fs.minimal_nonfaces} == \
        oracles.brute_force_minimal_nonfaces(diagram)
    assert all(list(s) == sorted(s) for s in fs.minimal_nonfaces)
    assert fs.vertex_complements == oracles.brute_force_vertex_complements(diagram)


# ---------------------------------------------------------------------------
# face counts


def test_face_counts_examples():
    f, h = oracles.face_counts(P)
    assert h == (1, 3, 5, 5, 3, 1)
    assert f[P.n] == 18

    f5, h5 = oracles.face_counts(PENTAGON)
    assert h5 == (1, 3, 1)
    assert f5[2] == 5

    _, hq = oracles.face_counts(Q)
    assert hq == (1, 3, 5, 5, 3, 1)


@given(st.lists(st.integers(1, 3), min_size=5, max_size=5).map(tuple))
@settings(max_examples=15, deadline=None)
def test_h_vector_symmetry_and_vertex_count(weights):
    diagram = GaleDiagram(weights)
    f, h = oracles.face_counts(diagram)
    assert h == h[::-1]  # Dehn-Sommerville
    assert sum(h) == f[diagram.n]
    assert sum(h) == len(face_structure(diagram).vertex_complements)


# ---------------------------------------------------------------------------
# labeling


def test_pinned_orderings():
    assert facet_labels(P) == (1, 1, 1, 3, 3, 5, 2, 4)
    assert facet_labels(Q) == (1, 1, 2, 3, 3, 5, 2, 4)


@pytest.mark.parametrize("weights", [
    (1, 1, 1, 1, 1), (4, 1, 1, 1, 1), (1, 2, 1, 1, 3), (2, 2, 1, 2, 2),
    (1, 1, 1, 1, 1, 1, 1), (3, 1, 1, 2, 1, 1, 1), P.weights, Q.weights,
])
def test_general_labeling_leads_with_a_vertex(weights):
    diagram = GaleDiagram(weights)
    fs = face_structure(diagram)
    n = diagram.n
    assert (n, n + 1, n + 2) in fs.vertex_complements
    assert frozenset(range(1, n + 1)) in oracles.maximal_faces(fs)
    # one facet per weight unit, labels with the right multiplicity
    for v, count in enumerate(diagram.weights, start=1):
        assert fs.labels.count(v) == count


def test_face_structure_matches_the_triple_scan():
    """On every canonical pentagon of total <= 12, every canonical heptagon
    of total <= 10 and both pinned orders, the vertex complements read off
    the label groups equal the scan of every facet triple, on the label
    order and on the final one, and the face structure whose least vertex
    is the complement of the greatest triple equals the one that scans
    every vertex for it."""
    diagrams = (oracles.canonical_diagrams(5, 12) + oracles.canonical_diagrams(7, 10)
                + list(_PINNED_ORDERS))
    assert len(diagrams) == 116
    for w in diagrams:
        diagram = GaleDiagram(w)
        fs = face_structure(diagram)
        assert fs == oracles.face_structure_by_scan(diagram), w
        by_label = [v for v, count in enumerate(w, start=1) for _ in range(count)]
        for labels in (by_label, fs.labels):
            assert _vertex_complements(labels, diagram.k) == \
                oracles.vertex_complements_by_scan(labels, diagram.k), (w, labels)
