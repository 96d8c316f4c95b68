"""Characteristic-matrix validity and enumeration."""

from collections import Counter
from itertools import permutations

import pytest

from galerig import fixtures
from galerig.charmat import (
    _COMPLETIONS,
    _renormaliser,
    _search_plan,
    canonical_charmats,
    enumerate_charmats,
    forms_from_rows,
    is_characteristic,
    orbits,
    row_strings,
)
from galerig.gale import GaleDiagram, face_structure
from galerig.gf2 import rank

import oracles

P = GaleDiagram((3, 1, 2, 1, 1))
Q = GaleDiagram((2, 2, 2, 1, 1))
FS_P = face_structure(P)
FS_Q = face_structure(Q)


def _rows(forms_list):
    return [row_strings(f) for f in forms_list]


def _oracle_rows(fs, blocks):
    return [oracles.block_row_strings(b, fs.n) for b in blocks]


def test_first_listed_block_is_characteristic():
    forms = fixtures.label_blocks("A")["A1"]
    assert is_characteristic(forms, FS_P)


def test_completion_table_matches_rank():
    """Bit c of _COMPLETIONS[a][b], read off a != b and c outside the span
    {0, a, b, a ^ b}, is set iff the forms a, b, c have rank 3."""
    assert _COMPLETIONS == tuple(
        tuple(sum(1 << c for c in range(1, 8) if rank((a, b, c), 3) == 3) for b in range(8))
        for a in range(8))


def test_equal_columns_on_a_shared_vertex_fail():
    # facets 1 and 6 lie on a common vertex; the block (00001, 11000, 00111)
    # gives facet 6 the first identity column, a rank deficit there.  Its
    # leading forms are x+z, z, z, y, y.
    shared = [f for f in oracles.maximal_faces(FS_P) if {1, 6} <= f]
    assert shared
    forms = (0b101, 0b100, 0b100, 0b010, 0b010)
    assert oracles.block_row_strings((0b00001, 0b11000, 0b00111), 5) == row_strings(forms)
    assert not is_characteristic(forms, FS_P)


def test_zero_form_rejected():
    with pytest.raises(ValueError):
        is_characteristic((0, 0b100, 0b100, 0b010, 0b010), FS_P)
    with pytest.raises(ValueError):
        is_characteristic((0b1000, 0b100, 0b100, 0b010, 0b010), FS_P)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        is_characteristic((3,), FS_P)


def test_enumeration_matches_published_lists():
    listed_a = set(fixtures.label_blocks("A").values())
    listed_b = set(fixtures.label_blocks("B").values())
    assert set(enumerate_charmats(FS_P)) == listed_a
    assert set(enumerate_charmats(FS_Q)) == listed_b
    assert len(listed_a) == len(listed_b) == 21


def test_enumeration_sorted_and_valid():
    forms_list = enumerate_charmats(FS_P)
    # the completion blocks, column j holding bit j of every form
    blocks = [tuple(sum(((f >> j) & 1) << i for i, f in enumerate(forms)) for j in range(3))
              for forms in forms_list]
    assert blocks == sorted(blocks)
    assert _oracle_rows(FS_P, blocks) == _rows(forms_list)
    for forms in forms_list:
        assert is_characteristic(forms, FS_P)


def test_pentagon_has_five_matrices():
    fs = face_structure(GaleDiagram((1, 1, 1, 1, 1)))
    assert len(enumerate_charmats(fs)) == 5


def test_unnormalized_order_rejected():
    from galerig.gale import FaceStructure

    fs = face_structure(GaleDiagram((1, 1, 1, 1, 1)))
    # drop the vertex formed by the leading facets 0 and 1
    broken = FaceStructure(
        labels=fs.labels,
        minimal_nonfaces=fs.minimal_nonfaces,
        vertex_complements=tuple(t for t in fs.vertex_complements
                                 if t != (2, 3, 4)),
    )
    with pytest.raises(ValueError):
        enumerate_charmats(broken)


@pytest.mark.parametrize("weights", [
    (1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 2, 1, 2, 1), (3, 1, 2, 1, 1),
])
def test_enumeration_matches_brute_force(weights):
    fs = face_structure(GaleDiagram(weights))
    assert _rows(enumerate_charmats(fs)) == _oracle_rows(fs, oracles.brute_force_charmats(fs))


def test_enumeration_matches_brute_force_up_to_total_10():
    diagrams = oracles.canonical_diagrams(5, 10) + oracles.canonical_diagrams(7, 10)
    assert len(diagrams) == 50
    for w in diagrams:
        fs = face_structure(GaleDiagram(w))
        assert _rows(enumerate_charmats(fs)) == \
            _oracle_rows(fs, oracles.brute_force_charmats(fs)), w


def test_enumeration_matches_column_backtracker_up_to_total_9():
    for w in oracles.canonical_diagrams(5, 9) + oracles.canonical_diagrams(7, 9):
        fs = face_structure(GaleDiagram(w))
        assert _rows(enumerate_charmats(fs)) == \
            _oracle_rows(fs, oracles.column_backtrack_charmats(fs)), w


def test_closure_under_label_preserving_automorphisms():
    """Permuting facets that share a polygon label is a face-structure
    automorphism; permuting their forms must map the enumerated set onto
    itself (the trailing facets carry x, y, z and are not moved)."""
    forms_set = set(enumerate_charmats(FS_P))
    labels = FS_P.labels
    ones = [i for i in range(FS_P.n) if labels[i] == 1]
    assert len(ones) == 3
    for image in permutations(ones):
        def moved(forms):
            out = list(forms)
            for src, dst in zip(ones, image):
                out[dst] = forms[src]
            return tuple(out)
        assert {moved(f) for f in forms_set} == forms_set


def test_search_plan_matches_the_greedy_rescan():
    """The plan kept with a count of closed pairs per facet is the plan that
    rescans every pair at every step, facet for facet and pair for pair, on
    every canonical pentagon of total <= 12 and heptagon of total <= 10."""
    diagrams = oracles.canonical_diagrams(5, 12) + oracles.canonical_diagrams(7, 10)
    assert len(diagrams) == 114
    for w in diagrams:
        fs = face_structure(GaleDiagram(w))
        assert _search_plan(fs) == oracles.search_plan_by_rescan(fs), w


def _parts(representatives) -> set[frozenset[int]]:
    parts: dict[int, set[int]] = {}
    for i, r in enumerate(representatives):
        parts.setdefault(r, set()).add(i)
    return {frozenset(p) for p in parts.values()}


def test_orbits_match_the_transposition_closure_up_to_total_10():
    """On every canonical pentagon and heptagon of total <= 10, the orbits
    are closed under every same-label transposition: their sizes sum to
    the matrix count, every transposition maps each orbit into itself, and
    each representative is its orbit's first member in column order."""
    diagrams = oracles.canonical_diagrams(5, 10) + oracles.canonical_diagrams(7, 10)
    assert len(diagrams) == 50
    for w in diagrams:
        fs = face_structure(GaleDiagram(w))
        blocks = enumerate_charmats(fs)
        representatives = orbits(fs, blocks)
        sizes = Counter(representatives)
        assert sum(sizes.values()) == len(blocks), w
        index = {forms: i for i, forms in enumerate(blocks)}
        for i, forms in enumerate(blocks):
            for image in oracles.same_label_images(fs, forms):
                assert representatives[index[image]] == representatives[i], (w, i)
        parts = _parts(representatives)
        assert all(representatives[i] == min(p) for p in parts for i in p), w


def test_orbits_match_the_polytope_symmetry_closure_up_to_total_10():
    """On every canonical pentagon and heptagon of total <= 10, the
    enumeration is closed under every automorphism the oracle finds by a
    scan of the label permutations, the orbits are the oracle's, each
    same-label orbit lies inside one of them, and each representative is
    its orbit's least index."""
    diagrams = oracles.canonical_diagrams(5, 10) + oracles.canonical_diagrams(7, 10)
    merged = 0
    for w in diagrams:
        fs = face_structure(GaleDiagram(w))
        blocks = enumerate_charmats(fs)
        listed = set(blocks)
        assert all(image in listed for forms in blocks
                   for image in oracles.polytope_symmetry_images(fs, forms)), w
        representatives = orbits(fs, blocks)
        parts = _parts(representatives)
        assert parts == oracles.polytope_symmetry_orbits(fs, blocks), w
        assert all(representatives[i] == min(p) for p in parts for i in p), w
        same_label = oracles.facet_symmetry_orbits(fs, blocks)
        assert all(any(orbit <= p for p in parts) for orbit in same_label), w
        merged += len(same_label) - len(parts)
    assert merged > 0  # the polygon symmetries join same-label orbits


@pytest.mark.parametrize("weights, count, orbit_count", [
    ((3, 1, 2, 1, 1), 21, 11), ((2, 2, 2, 1, 1), 21, 7), ((2, 2, 2, 2, 1), 27, 9),
    ((3, 1, 2, 2, 1), 27, 8), ((3, 2, 1, 1, 2), 37, 8), ((4, 1, 2, 1, 1), 37, 13),
    ((4, 1, 1, 1, 1), 33, 6), ((10, 1, 1, 1, 1), 2049, 12),
])
def test_orbit_counts(weights, count, orbit_count):
    fs = face_structure(GaleDiagram(weights))
    blocks = enumerate_charmats(fs)
    assert len(blocks) == count
    assert len(set(orbits(fs, blocks))) == orbit_count


def test_orbits_of_a_partial_list_stay_inside_true_orbits():
    """A list the automorphisms do not map onto itself, cut or reordered,
    is still split into parts that each lie inside one orbit, each
    represented by its first member in list order."""
    blocks = enumerate_charmats(FS_Q)
    true_orbits = oracles.polytope_symmetry_orbits(FS_Q, blocks)
    for listed in (blocks[::-1], blocks[:9], blocks[::2]):
        representatives = orbits(FS_Q, listed)
        for part in _parts(representatives):
            assert representatives[min(part)] == min(part)
            members = {blocks.index(listed[i]) for i in part}
            assert any(members <= orbit for orbit in true_orbits)
    assert len(set(orbits(FS_Q, blocks[::-1]))) == 7


def test_leading_facets_of_one_label_must_be_consecutive():
    """The canonical tuples sort forms along consecutive runs, which every
    face_structure order gives; a labelling that splits a label's leading
    facets is refused."""
    split = FS_Q._replace(labels=(1, 2, 1, 3, 3, 5, 2, 4))
    with pytest.raises(ValueError, match="not consecutive"):
        canonical_charmats(split)
    with pytest.raises(ValueError, match="not consecutive"):
        orbits(split, [])


def test_renormaliser_sends_each_basis_to_the_variables():
    """For each of the 168 bases of GF(2)^3 the renormaliser is the
    substitution of gl3() that sends basis form j to variable j, read at
    every form; a dependent triple is refused."""
    from galerig.gf2 import image, rank
    from oracles import gl3

    bases = [b for b in permutations(range(1, 8), 3) if rank(b, 3) == 3]
    assert len(bases) == 168
    for basis in bases:
        rows = next(g for g in gl3() if all(image(u, g) == 1 << j for j, u in enumerate(basis)))
        assert _renormaliser(basis) == tuple(image(v, rows) for v in range(8)), basis
    with pytest.raises(ValueError):
        _renormaliser((1, 2, 3))


def test_matrix_json_round_trip():
    forms = fixtures.label_blocks("A")["A1"]
    rows = row_strings(forms)
    assert rows[0] == "101"  # row 1 of A1 is 10000101
    assert forms_from_rows(rows) == forms
    with pytest.raises(ValueError):
        forms_from_rows(["102", "000", "000", "000", "000"])


def test_block_row_strings_match_fixture_encoding():
    rows = fixtures.matrix_lists()["A"][0]
    assert row_strings(forms_from_rows(rows)) == rows


def test_row_string_table_spells_each_form_bit_by_bit():
    forms = tuple(range(1, 8))
    assert row_strings(forms) == ["".join(str((f >> j) & 1) for j in range(3)) for f in forms]
