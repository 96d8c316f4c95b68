"""Fixture verification layer."""

import json

import pytest

from galerig.charmat import row_strings
from galerig.cli import _classes, classify
from galerig.gale import GaleDiagram
from galerig.verify import (WEIGHTS_A, WEIGHTS_B, ideal_tables, label_blocks, profile_tables,
                            run_verification)


@pytest.fixture(scope="module")
def classes():
    """The report's face structure and {representative: orbit size} of
    each reference polytope, by weights, as report --verify classifies
    them."""
    return {w: _classes(GaleDiagram(w)) for w in sorted((WEIGHTS_A, WEIGHTS_B))}


@pytest.fixture(scope="module")
def report(classes):
    [pair] = classify(classes)["pairs"]
    return run_verification(pair["isomorphisms_found"], classes)


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


def test_discrepancy_certified_by_the_independent_path_alone(classes, report, monkeypatch):
    """A published cell that differs from the profile is certified only when
    the second computation path agrees with the profile's value."""
    import galerig.verify

    monkeypatch.setattr(galerig.verify, "codim", lambda gamma, q: -1)
    monkeypatch.setattr(galerig.verify, "order", lambda gamma, q: -1)
    again = run_verification(report["iso_found"], classes)
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


def test_published_block_missing_from_the_report_is_built(classes, report, monkeypatch):
    """A published block absent from the enumerated matrix list fails the
    matrix comparison, and its quotient is still built on the report's face
    structure, so the tables are still diffed in full."""
    import galerig.verify

    first = label_blocks("A")["A1"]
    fs_a = classes[WEIGHTS_A][0]
    enumerate_charmats = galerig.verify.enumerate_charmats

    def cut(fs):
        blocks = enumerate_charmats(fs)
        return [b for b in blocks if b != first] if fs == fs_a else blocks

    monkeypatch.setattr(galerig.verify, "enumerate_charmats", cut)
    again = run_verification(report["iso_found"], classes)
    assert again["matrices"]["A"]["missing"] == [row_strings(first)]
    assert again["matrices"]["B"]["ok"] is True
    assert again["passed"] is False
    for field in ("ideal_rows", "profile_discrepancies"):
        assert again[field] == report[field]


def test_report_count_off_the_list_fails_its_family(classes, report):
    """A family whose report count is not its list's length fails, though
    the list matches the published one, and iso_pairs is the product of
    the report's counts."""
    fs_a, sizes_a = classes[WEIGHTS_A]
    first, *rest = sizes_a.items()
    fewer = {**classes, WEIGHTS_A: (fs_a, dict(rest))}
    again = run_verification(report["iso_found"], fewer)
    a = again["matrices"]["A"]
    assert (a["ok"], a["matched"], a["missing"], a["extra"]) == (False, 21, [], [])
    assert again["matrices"]["B"]["ok"] is True and again["passed"] is False
    assert again["iso_pairs"] == (21 - first[1]) * 21


def test_representative_groups_cover_everything():
    # each profile-table row label and the matrix labels sharing its ideal
    groups = {row["labels"][0]: list(row["labels"]) for row in ideal_tables()}
    assert set(groups) == set(profile_tables()["codim_A"]) | set(
        profile_tables()["codim_B"])
    labels = [lab for members in groups.values() for lab in members]
    assert sorted(labels) == sorted(
        [f"A{i}" for i in range(1, 22)] + [f"B{i}" for i in range(1, 22)])
