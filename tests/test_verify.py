"""Fixture verification layer."""

import json

import pytest

from galerig.charmat import row_strings
from galerig.cli import _classes, classify
from galerig.cohomology import quotient_presentation
from galerig.gale import GaleDiagram
from galerig.gf2 import format_poly, parse_poly
from galerig.verify import (WEIGHTS_A, WEIGHTS_B, ideal_tables, label_blocks, profile_tables,
                            run_verification)

from oracles import verification_by_quotients


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
    matrix comparison, and its socle functional is still read on the
    report's face structure, so the tables are still diffed in full."""
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


def test_record_equals_the_quotient_path(classes, report):
    """The record read off top functionals is the one that the 42 published
    blocks' saturated quotients give, on the bundled tables."""
    assert verification_by_quotients(report["iso_found"], classes) == report


def _changed_generators(rows, case, classes):
    """(index, generators) of one published row changed as case says."""
    if case == "non_member":
        # xz spans A1's I_2, so xy is no member
        return 0, ["xy" if text == "xz" else text for text in rows[0]["generators"]]
    if case == "lower_degree_missed":
        # A8's row without xz, plus a basis of I_5: every generator lies in
        # I, but the ideal they generate misses I_2
        q = quotient_presentation(classes[WEIGHTS_A][0], label_blocks("A")["A8"])
        gens = [text for text in rows[3]["generators"] if text != "xz"]
        gens += [format_poly((5, vec)) for vec in q.ideal.rows(5)]
        assert all(q.ideal.contains(*parse_poly(text)) for text in gens)
        return 3, gens
    if case == "other_family":
        return 8, rows[21]["generators"]  # A15's row takes B21's ideal
    # the B21 row, whose ord_B cell is discrepant, unparseable too
    return 21, ["y^{2}z+z^{z}" if text == "y^{2}z+z^{3}" else text
                for text in rows[21]["generators"]]


@pytest.mark.parametrize("case", ["non_member", "lower_degree_missed", "other_family",
                                  "unparseable"])
def test_changed_row_agrees_with_the_quotient_path(classes, report, monkeypatch, case):
    """A published row with a generator outside I, one whose generators all
    lie in I but generate less of it, one of the other family's ideals, and
    one more unparseable row: each gets the record that the saturated
    quotients give.  A row that does not match fails verification, and its
    discrepant cells are still certified, on its block's own generators."""
    import galerig.verify

    rows = list(ideal_tables())
    index, gens = _changed_generators(rows, case, classes)
    rows[index] = {**rows[index], "generators": gens}
    monkeypatch.setattr(galerig.verify, "ideal_tables", lambda: tuple(rows))
    again = run_verification(report["iso_found"], classes)
    assert again == verification_by_quotients(report["iso_found"], classes)
    row = again["ideal_rows"][index]
    assert again["profile_discrepancies"] == report["profile_discrepancies"]
    if case == "unparseable":
        assert row["unparseable"] and row["ok"] and again["passed"]
        assert len(row["computed_generators"]) == 5
    else:
        assert (row["matches"], row["ok"], again["passed"]) == (False, False, False)
