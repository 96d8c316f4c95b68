"""Fixture verification layer."""

import json

import pytest

from galerig import fixtures
from galerig.charmat import enumerate_charmats
from galerig.cohomology import pairwise_iso_matrix, quotient_presentation
from galerig.gale import GaleDiagram, face_structure
from galerig.verify import WEIGHTS_A, WEIGHTS_B, run_verification


@pytest.fixture(scope="module")
def matrices():
    """The report's face structure and matrix list of each reference
    polytope, by weights."""
    out = {}
    for weights in (WEIGHTS_A, WEIGHTS_B):
        fs = face_structure(GaleDiagram(weights))
        out[weights] = (fs, enumerate_charmats(fs))
    return out


@pytest.fixture(scope="module")
def quotients(matrices):
    """The report's quotients of the two reference polytopes, by weights and
    then by matrix."""
    return {weights: {b: quotient_presentation(fs, b) for b in blocks}
            for weights, (fs, blocks) in matrices.items()}


@pytest.fixture(scope="module")
def report(matrices, quotients):
    matrix = pairwise_iso_matrix(*(list(q.values()) for q in quotients.values()))
    return run_verification(sum(sum(row) for row in matrix), matrices, quotients)


def test_matrix_lists_match(report):
    for family in ("A", "B"):
        comparison = report["matrices"][family]
        assert comparison["ok"]
        assert comparison["family"] == family and comparison["matched"] == 21
        assert comparison["missing"] == [] and comparison["extra"] == []
        assert "reductions" not in comparison


def test_parseable_ideal_rows_match(report):
    parseable = [r for r in report["ideal_rows"] if not r["unparseable"]]
    assert parseable and all(r["matches"] for r in parseable)
    assert all(r["ok"] is r["matches"] for r in parseable)


def test_single_unparseable_row_emits_computed_ideal(report):
    bad = [r for r in report["ideal_rows"] if r["unparseable"]]
    assert len(bad) == 1
    row = bad[0]
    assert row["labels"] == ["A10", "A12"]
    assert "y^z" in row["bad_token"]
    assert row["computed_generators"] and len(row["computed_generators"]) == 5
    assert row["ok"] is True and row["matches"] is None


def test_profile_discrepancies_all_certified(report):
    assert report["profile_discrepancies"]
    assert all(d["certified"] for d in report["profile_discrepancies"])


def test_discrepancy_certified_by_the_independent_path_alone(matrices, quotients, report,
                                                             monkeypatch):
    """A published cell that differs from the profile is certified only when
    the second computation path agrees with the profile's value."""
    import galerig.verify

    monkeypatch.setattr(galerig.verify, "codim_via_annihilator", lambda gamma, q: -1)
    monkeypatch.setattr(galerig.verify, "order_via_quotient_maps", lambda gamma, q: -1)
    again = run_verification(report["iso_found"], matrices, quotients)
    cells = [(d["table"], d["row"], d["column"]) for d in again["profile_discrepancies"]]
    assert cells == [(d["table"], d["row"], d["column"]) for d in report["profile_discrepancies"]]
    assert {table[:3] for table, _, _ in cells} == {"cod", "ord"}
    assert not any(d["certified"] for d in again["profile_discrepancies"])
    assert again["passed"] is False


def test_expected_discrepancy_present(report):
    keys = {(d["table"], d["row"], d["column"]) for d in report["profile_discrepancies"]}
    assert ("ord_A", "A1", "x") in keys


def test_no_cross_isomorphisms(report):
    assert report["iso_pairs"] == 441
    assert report["iso_found"] == 0


def test_report_passes_and_serializes(report):
    assert report["passed"] is True
    data = json.loads(json.dumps(report))
    assert data["passed"] is True
    assert data == report
    assert {d["table"] for d in data["profile_discrepancies"]} <= {
        "codim_A", "ord_A", "codim_B", "ord_B"}


def test_published_block_missing_from_the_report_is_built(matrices, quotients, report):
    """A published block with no quotient from the report gets one built on
    the report's face structure, so the tables are still diffed in full."""
    first = fixtures.label_blocks("A")["A1"]
    partial = {**quotients, WEIGHTS_A: {b: q for b, q in quotients[WEIGHTS_A].items()
                                        if b != first}}
    again = run_verification(report["iso_found"], matrices, partial)
    assert again == report


def test_representative_groups_cover_everything():
    # each profile-table row label and the matrix labels sharing its ideal
    groups = {row["labels"][0]: list(row["labels"]) for row in fixtures.ideal_tables()}
    assert set(groups) == set(fixtures.profile_tables()["codim_A"]) | set(
        fixtures.profile_tables()["codim_B"])
    labels = [lab for members in groups.values() for lab in members]
    assert sorted(labels) == sorted(
        [f"A{i}" for i in range(1, 22)] + [f"B{i}" for i in range(1, 22)])
