"""Petersen-graph classification of pentagon weight vectors."""

import pytest
from hypothesis import given, settings, strategies as st

from galerig.gale import canonical_weights
from galerig.petersen import (
    ADJACENCY,
    cycle_readings,
    five_cycles,
    petersen_labels,
    tor_class,
)

import oracles

weight_vectors = st.lists(st.integers(1, 9), min_size=5, max_size=5).map(tuple)


def test_adjacency_is_petersen():
    assert all(len(nbrs) == 3 for nbrs in ADJACENCY)
    assert all(a in ADJACENCY[b] for a, nbrs in enumerate(ADJACENCY) for b in nbrs)
    # girth 5: no triangles, no 4-cycles through any edge
    for a in range(10):
        for b in ADJACENCY[a]:
            assert not set(ADJACENCY[a]) & set(ADJACENCY[b])


def test_labels_examples():
    assert petersen_labels((3, 1, 2, 1, 1))[5:] == (0, 1, 2, 3, 2)
    assert petersen_labels((1, 1, 1, 1, 1))[5:] == (1, 1, 1, 1, 1)
    assert petersen_labels((2, 2, 2, 1, 1))[5:] == (1, 0, 1, 3, 3)


@given(st.lists(st.integers(-5, 9), min_size=5, max_size=5).map(tuple))
def test_inner_labels_sum_to_outer(w):
    labels = petersen_labels(w)
    assert sum(labels[5:]) == sum(labels[:5])


def test_twelve_cycles():
    cycles = five_cycles()
    assert len(cycles) == 12
    assert (0, 1, 2, 3, 4) in cycles  # the outer cycle
    for cyc in cycles:
        assert len(set(cyc)) == 5
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert b in ADJACENCY[a]


def test_each_vertex_on_six_cycles():
    cycles = five_cycles()
    for v in range(10):
        assert sum(v in cyc for cyc in cycles) == 6


def test_at_most_24_directed_sequences():
    assert len(oracles.directed_label_sequences((3, 1, 2, 1, 1))) <= 24


def test_tor_class_examples():
    assert tor_class((3, 1, 2, 1, 1)) == ((2, 2, 2, 1, 1), (3, 1, 2, 1, 1))
    assert tor_class((1, 1, 1, 1, 1)) == ((1, 1, 1, 1, 1),)
    assert tor_class((2, 2, 2, 2, 2)) == ((2, 2, 2, 2, 2),)


def test_tor_class_rejects_bad_weights():
    with pytest.raises(ValueError):
        tor_class((1, 1, 1, 1))
    with pytest.raises(ValueError):
        tor_class((1, 0, 1, 1, 1))


def test_rejected_readings_have_nonpositive_labels():
    accepted, rejected = cycle_readings((3, 1, 2, 1, 1))
    assert len(accepted) + len(rejected) == 12
    assert all(min(seq) < 1 for _, seq in rejected)
    assert all(min(seq) >= 1 for _, seq in accepted)


@given(weight_vectors)
@settings(max_examples=80)
def test_members_preserve_adjacent_sums(w):
    target = oracles.adjacent_sum_multiset(w)
    members = tor_class(w)
    assert canonical_weights(w) in members
    for member in members:
        assert oracles.adjacent_sum_multiset(member) == target


@given(weight_vectors)
@settings(max_examples=40, deadline=None)
def test_tor_class_closed(w):
    members = tor_class(w)
    for member in members:
        assert tor_class(member) == members


@given(weight_vectors)
@settings(max_examples=60)
def test_matches_linear_system_oracle(w):
    assert tor_class(w) == oracles.tor_class_by_linear_systems(w)


def test_completeness_against_search_small_totals():
    for w in oracles.pentagon_diagrams(11):
        assert tor_class(w) == oracles.tor_class_by_search(w), w
