"""Gale diagrams, the arc criterion, and face structures."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from galerig.gale import (
    GaleDiagram,
    canonical_weights,
    face_structure,
    facet_labeling,
    minimal_nonfaces,
    origin_in_hull,
)

import oracles

P = GaleDiagram((3, 1, 2, 1, 1))
Q = GaleDiagram((2, 2, 2, 1, 1))
PENTAGON = GaleDiagram((1, 1, 1, 1, 1))

weight_vectors = st.lists(st.integers(1, 6), min_size=5, max_size=5).map(tuple)


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
    labeling = facet_labeling(P)
    fs = face_structure(P)
    for face in fs.maximal_faces:
        for size in range(len(face)):
            for subset in combinations(sorted(face), size):
                assert oracles.is_face(subset, P, labeling)


def test_minimal_nonfaces_examples():
    fs = face_structure(P)
    assert [len(s) for s in fs.minimal_nonfaces] == [4, 3, 3, 2, 4]
    assert fs.minimal_nonfaces[3] == frozenset({6, 8})  # facets F4 and F5

    assert [len(s) for s in minimal_nonfaces(Q)] == [4, 4, 3, 2, 3]

    pent = minimal_nonfaces(PENTAGON)
    labels = facet_labeling(PENTAGON).labels
    for i, nonface in enumerate(pent, start=1):
        expected_labels = {i, i % 5 + 1}
        assert {labels[j - 1] for j in nonface} == expected_labels


def test_minimal_nonfaces_pairwise_incomparable():
    for diagram in (P, Q, PENTAGON, GaleDiagram((2, 1, 3, 1, 2)),
                    GaleDiagram((1, 1, 1, 1, 1, 1, 1))):
        sets = minimal_nonfaces(diagram)
        for a in sets:
            for b in sets:
                assert a == b or not a <= b


@pytest.mark.parametrize("weights", [
    (1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (3, 1, 2, 1, 1), (2, 2, 2, 1, 1),
    (1, 2, 1, 2, 1), (1, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1, 1),
])
def test_minimal_nonfaces_match_brute_force(weights):
    diagram = GaleDiagram(weights)
    assert set(minimal_nonfaces(diagram)) == oracles.brute_force_minimal_nonfaces(diagram)


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
    assert sum(h) == len(face_structure(diagram).maximal_faces)


# ---------------------------------------------------------------------------
# labeling


def test_pinned_orderings():
    lp = facet_labeling(P)
    assert lp.names == ("F1_1", "F1_2", "F1_3", "F3_1", "F3_2", "F5", "F2", "F4")
    assert lp.labels == (1, 1, 1, 3, 3, 5, 2, 4)
    lq = facet_labeling(Q)
    assert lq.names == ("F1_1", "F1_2", "F2_1", "F3_1", "F3_2", "F5", "F2_2", "F4")
    assert lq.labels == (1, 1, 2, 3, 3, 5, 2, 4)


@pytest.mark.parametrize("weights", [
    (1, 1, 1, 1, 1), (4, 1, 1, 1, 1), (1, 2, 1, 1, 3), (2, 2, 1, 2, 2),
    (1, 1, 1, 1, 1, 1, 1), (3, 1, 1, 2, 1, 1, 1),
])
def test_general_labeling_leads_with_a_vertex(weights):
    diagram = GaleDiagram(weights)
    fs = face_structure(diagram)
    assert frozenset(range(1, diagram.n + 1)) in set(fs.maximal_faces)
    # one facet per weight unit, labels with the right multiplicity
    for v, count in enumerate(diagram.weights, start=1):
        assert fs.labeling.labels.count(v) == count
