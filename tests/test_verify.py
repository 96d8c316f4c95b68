"""Fixture verification layer."""

import pytest

from galerig import fixtures
from galerig.charmat import enumerate_charmats
from galerig.cohomology import pairwise_iso_matrix, quotient_presentation
from galerig.gale import GaleDiagram, face_structure
from galerig.verify import WEIGHTS_A, WEIGHTS_B, run_verification


@pytest.fixture(scope="module")
def quotients():
    """The report's quotients of the two reference polytopes, by weights and
    then by matrix."""
    out = {}
    for weights in (WEIGHTS_A, WEIGHTS_B):
        fs = face_structure(GaleDiagram(weights))
        out[weights] = {b: quotient_presentation(fs, b) for b in enumerate_charmats(fs)}
    return out


@pytest.fixture(scope="module")
def report(quotients):
    matrix = pairwise_iso_matrix(*(list(q.values()) for q in quotients.values()))
    return run_verification(sum(sum(row) for row in matrix), quotients)


def test_matrix_lists_match(report):
    for family in ("A", "B"):
        comparison = report.matrices[family]
        assert comparison.ok
        assert comparison.matched == 21
        assert comparison.missing == [] and comparison.extra == []
        assert "reductions" not in comparison.to_json()


def test_parseable_ideal_rows_match(report):
    parseable = [r for r in report.ideal_rows if not r.unparseable]
    assert parseable and all(r.matches for r in parseable)


def test_single_unparseable_row_emits_computed_ideal(report):
    bad = [r for r in report.ideal_rows if r.unparseable]
    assert len(bad) == 1
    row = bad[0]
    assert row.labels == ["A10", "A12"]
    assert "y^z" in row.bad_token
    assert row.computed_generators and len(row.computed_generators) == 5


def test_profile_discrepancies_all_certified(report):
    assert report.discrepancies
    assert all(d.certified for d in report.discrepancies)


def test_expected_discrepancy_present(report):
    keys = {(d.table, d.row, d.column) for d in report.discrepancies}
    assert ("ord_A", "A1", "x") in keys


def test_no_cross_isomorphisms(report):
    assert report.iso_pairs == 441
    assert report.iso_found == 0


def test_report_passes_and_serializes(report):
    assert report.passed
    data = report.to_json()
    assert data["passed"] is True
    assert {d["table"] for d in data["profile_discrepancies"]} <= {
        "codim_A", "ord_A", "codim_B", "ord_B"}


def test_published_block_missing_from_the_report_is_built(quotients, report):
    """A published block with no quotient from the report gets one built,
    so the tables are still diffed in full."""
    first = fixtures.label_blocks("A")["A1"]
    partial = {**quotients, WEIGHTS_A: {b: q for b, q in quotients[WEIGHTS_A].items()
                                        if b != first}}
    again = run_verification(report.iso_found, partial)
    assert again.to_json() == report.to_json()


def test_representative_groups_cover_everything():
    # each profile-table row label and the matrix labels sharing its ideal
    groups = {row["labels"][0]: list(row["labels"]) for row in fixtures.ideal_tables()}
    assert set(groups) == set(fixtures.profile_tables()["codim_A"]) | set(
        fixtures.profile_tables()["codim_B"])
    labels = [lab for members in groups.values() for lab in members]
    assert sorted(labels) == sorted(
        [f"A{i}" for i in range(1, 22)] + [f"B{i}" for i in range(1, 22)])
