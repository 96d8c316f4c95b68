"""Command-line interface: subcommands, exit codes, caching, determinism."""

import importlib
import json
import subprocess
import sys
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

from galerig.cli import main


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "galerig.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_betti_text_and_json(capsys):
    assert main(["betti", "3,1,2,1,1"]) == 0
    out = capsys.readouterr().out
    assert "beta^(-1,4) = 1" in out and "beta^(-1,6) = 2" in out and "beta^(-1,8) = 2" in out

    assert main(["betti", "1,1,1,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"i": 1, "2j": 4, "beta": 5} in data["entries"]


def test_invalid_weights_exit_2(capsys):
    assert main(["betti", "3,1,2,1"]) == 2
    assert main(["betti", "spam"]) == 2
    assert main(["torclass", "1,1,1,1,1,1,1"]) == 2


def test_torclass(capsys):
    assert main(["torclass", "3,1,2,1,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [[2, 2, 2, 1, 1], [3, 1, 2, 1, 1]]
    assert main(["torclass", "2,2,2,1,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [[2, 2, 2, 1, 1], [3, 1, 2, 1, 1]]
    assert main(["torclass", "1,1,1,1,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [[1, 1, 1, 1, 1]]


def test_charmats_counts(capsys):
    assert main(["charmats", "3,1,2,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 21
    assert ["101", "101", "101", "011", "011"] in data["blocks"]


def test_cohomology_single_matrix(capsys):
    assert main(["cohomology", "1,1,1,1,1", "--matrix", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 1
    assert data[0]["hilbert"] == [1, 3, 1]


def test_cohomology_text_builds_no_ideal_lists(monkeypatch, capsys):
    """Text cohomology prints block, hilbert and generators only, so it
    converts no ideal row to lists; --json does, and each text line is the
    one rendered from the --json record of the same matrix."""
    import galerig.cli

    calls = Counter()
    to_lists = galerig.cli.to_lists

    def counted(*args):
        calls["to_lists"] += 1
        return to_lists(*args)

    monkeypatch.setattr(galerig.cli, "to_lists", counted)
    for selection in ([], ["--matrix", "7"]):
        argv = ["cohomology", "4,1,1,1,1", *selection]
        calls.clear()
        assert main(argv) == 0
        text = capsys.readouterr().out.splitlines()
        assert calls["to_lists"] == 0
        assert main(argv + ["--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert calls["to_lists"] > 0
        assert len(records) == (1 if selection else 33)
        assert all(record["ideal"] for record in records)
        assert text == [line for r in records for line in (
            " ".join(r["block"]), f"  hilbert: {r['hilbert']}",
            "  generators: " + ", ".join(r["generators"]))]


def test_cohomology_bad_index(capsys):
    assert main(["cohomology", "1,1,1,1,1", "--matrix", "9"]) == 2


def test_matrix_index_on_an_empty_list(capsys):
    """A diagram with no characteristic matrices has no index to select:
    --matrix says so, with exit 2, instead of asking for one in 1..0."""
    for command in ("profile", "cohomology"):
        assert main([command, "1,1,1,1,1,1,1,1,1", "--matrix", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no characteristic matrices" in captured.err
        assert "1..0" not in captured.err


def test_profile_output(capsys):
    assert main(["profile", "1,1,1,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 5
    assert data[0]["forms"] == ["x", "y", "z", "x+y", "x+z", "y+z", "x+y+z"]


def test_iso_command(capsys):
    assert main(["iso", "1,1,1,1,1", "1,1,1,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pairs"] == 25
    # the five pentagon quotients all share one isomorphism class
    assert data["found"] == 25


def test_report_fixture_class(capsys):
    assert main(["report", "3,1,2,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tor_class"] == [[2, 2, 2, 1, 1], [3, 1, 2, 1, 1]]
    assert [m["charmat_count"] for m in data["members"]] == [21, 21]
    assert data["pairs"][0]["checked"] == 441
    assert data["pairs"][0]["isomorphisms_found"] == 0
    assert data["verdict"] == "NOT-B-RIGID; C-RIGID-WITHIN-CLASS"


def test_report_singleton(capsys):
    assert main(["report", "1,1,1,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "B-RIGID-WITHIN-FAMILY"
    assert data["pairs"] == []


def test_report_heptagon_notice(capsys):
    assert main(["report", "1,1,1,1,1,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "UNDETERMINED"
    assert "pentagon" in data["notice"]
    assert data["betti"]["entries"]


def test_report_k4_refused(capsys):
    assert main(["report", "1,1,1,1,1,1,1,1,1"]) == 2
    assert "k <= 3" in capsys.readouterr().err


def test_report_verify_passes(capsys, monkeypatch):
    """The printed verification object is the record run_verification
    returns, passed and with every key of each entry."""
    import galerig.verify

    records = []
    run = galerig.verify.run_verification

    def recorded(*args):
        records.append(run(*args))
        return records[-1]

    monkeypatch.setattr(galerig.verify, "run_verification", recorded)
    assert main(["report", "3,1,2,1,1", "--verify", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    v = data["verification"]
    assert v["passed"] is True
    assert len(records) == 1 and v == records[0]
    assert set(v) == {"matrices", "ideal_rows", "profile_discrepancies",
                      "iso_found", "iso_pairs", "passed"}
    assert all(set(c) == {"family", "matched", "missing", "extra", "ok"}
               for c in v["matrices"].values())
    assert all(set(r) == {"table", "labels", "unparseable", "bad_token", "matches",
                          "computed_generators", "ok"} for r in v["ideal_rows"])
    assert all(set(d) == {"table", "row", "column", "paper_value", "computed_value",
                          "certified"} for d in v["profile_discrepancies"])
    keys = {(d["table"], d["row"], d["column"]) for d in v["profile_discrepancies"]}
    assert ("ord_A", "A1", "x") in keys


def test_report_verify_rejected_off_fixture(capsys):
    for weights in ("1,1,1,1,1", "2,2,1,1,1,1,1"):
        assert main(["report", weights, "--verify"]) == 2
        captured = capsys.readouterr()
        assert "refusing --verify" in captured.err and captured.out == ""


def test_report_verify_keys_each_quotient_once(monkeypatch):
    """The 11 + 7 orbit representatives of 21 + 21 matrices under the
    automorphisms of the two polytopes need 18 top functionals, each
    checked, read in one top_functionals call per member, and one orbit
    closure per key class of the first member: 5, since the last member
    only looks its functionals up.  Keys build no quotient: the
    42 of --verify are the published blocks, all built by verify, which
    reads the 22 profiled rows' functionals off those quotients' own top
    degrees and eliminates no I_n again."""
    import galerig.cli
    import galerig.cohomology
    import galerig.verify

    calls = Counter()

    def count(module, name, weight=lambda *args: 1):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[f"{module.__name__.split('.')[-1]}.{name}"] += weight(*args)
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    count(galerig.cli, "top_functionals")
    # the matrices those calls take
    batch_sizes = Counter()
    top_functionals = galerig.cli.top_functionals
    monkeypatch.setattr(galerig.cli, "top_functionals", lambda fs, batch, h:
                        batch_sizes.update(matrices=len(batch)) or top_functionals(fs, batch, h))
    count(galerig.cli, "quotient_presentation")
    count(galerig.verify, "quotient_presentation")
    count(galerig.verify, "quotient_functional")
    count(galerig.cohomology, "_orbit")
    assert main(["report", "3,1,2,1,1", "--verify"]) == 0
    assert calls == {"cli.top_functionals": 2, "cohomology._orbit": 5,
                     "verify.quotient_presentation": 42, "verify.quotient_functional": 22}
    assert batch_sizes == {"matrices": 18}
    calls.clear()
    batch_sizes.clear()
    assert main(["report", "3,1,2,1,1"]) == 0
    assert calls == {"cli.top_functionals": 2, "cohomology._orbit": 5}
    assert batch_sizes == {"matrices": 18}
    calls.clear()
    batch_sizes.clear()
    assert main(["report", "1,1,1,1,1"]) == 0
    assert calls == {} and not batch_sizes  # a singleton class has no pair to compare
    assert main(["iso", "4,1,1,1,1", "4,1,1,1,1"]) == 0
    # a diagram compared with itself is keyed once, one functional per orbit
    assert calls == {"cli.top_functionals": 1, "cohomology._orbit": 2}
    assert batch_sizes == {"matrices": 6}


def test_cross_iso_shares_one_key_map_when_n_and_h_agree(monkeypatch, capsys):
    """iso of two diagrams with one n and one h-vector keys both lists with
    one {phi: key} map, and the second fills no orbit, as report's last
    member: 9 fills for the 9 key classes of [3,1,2,1,1], 5 for the 5 of
    [2,2,2,1,1], not 9 + 5.  Lists of different h keep one map each, and
    the second still fills none: the pentagon's 9 and none of the
    heptagon's, whose keys, carrying another h, equal none of the
    pentagon's either way."""
    import galerig.cohomology

    fills = []
    orbit = galerig.cohomology._orbit
    monkeypatch.setattr(galerig.cohomology, "_orbit",
                        lambda *args: fills.append(args) or orbit(*args))
    for argv, count in ((["iso", "3,1,2,1,1", "2,2,2,1,1"], 9),
                        (["iso", "2,2,2,1,1", "3,1,2,1,1"], 5),
                        (["iso", "3,1,2,1,1", "2,2,1,1,1,1,1"], 9)):
        fills.clear()
        assert main(argv) == 0
        assert len(fills) == count, argv
        assert capsys.readouterr().out.startswith("0 graded isomorphisms"), argv


def test_one_shot_commands_build_no_stacked_orbit_table(monkeypatch, capsys):
    """A fresh report of the flagship class and a fresh iso of (4,1,1,1,1)
    with itself fill fewer orbits than the w = 21 a stacked table of n = 5
    costs, so neither builds one."""
    import galerig.cohomology

    for argv in (["report", "3,1,2,1,1"], ["iso", "4,1,1,1,1", "4,1,1,1,1"]):
        monkeypatch.setattr(galerig.cohomology, "_chained_fills", {})
        galerig.cohomology._orbit_table.cache_clear()
        assert main(argv) == 0
        assert galerig.cohomology._chained_fills[5] < 21, argv
        assert galerig.cohomology._orbit_table.cache_info().misses == 0, argv
    capsys.readouterr()


def test_report_verdict_when_a_pair_is_isomorphic(monkeypatch, capsys):
    """The verdict no Tor class has reached yet, on a synthetic two-member
    class: [3,1,2,1,1], the last member, is given the face structure and
    matrices of [2,2,2,1,1], so every pair with equal keys counts, as many
    as iso of [2,2,2,1,1] with itself finds.  The members stay distinct, so
    the first fills its orbits and the last looks them up."""
    import galerig.cli
    from galerig.gale import GaleDiagram

    assert main(["iso", "2,2,2,1,1", "2,2,2,1,1"]) == 0
    self_isos = int(capsys.readouterr().out.split()[0])
    first, last = GaleDiagram((2, 2, 2, 1, 1)), GaleDiagram((3, 1, 2, 1, 1))
    classes = galerig.cli._classes
    monkeypatch.setattr(galerig.cli, "_classes",
                        lambda diagram: classes(first if diagram == last else diagram))
    assert main(["report", "3,1,2,1,1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND"
    assert report["tor_class"] == [[2, 2, 2, 1, 1], [3, 1, 2, 1, 1]]
    [pair] = report["pairs"]
    assert pair["checked"] == 21 * 21
    assert pair["isomorphisms_found"] == self_isos > 0
    assert main(["report", "3,1,2,1,1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "verdict: NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND"


def test_classify_gives_each_verdict(monkeypatch, capsys):
    """classify, called on each member's matrices up to its automorphisms
    (cli._classes): a singleton class is settled by its matrix count, read
    off its orbit sizes, with no functional read and no orbit filled;
    the flagship class finds none of its 441 pairs isomorphic; and a
    synthetic class, the matrices of [2,2,2,1,1] under
    two weights, finds as many as iso of [2,2,2,1,1] with itself."""
    import galerig.cli
    import galerig.cohomology
    from galerig.cli import _classes, classify
    from galerig.gale import GaleDiagram

    calls = Counter()
    for module, name in ((galerig.cli, "top_functionals"), (galerig.cohomology, "_orbit")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))

    record = classify({(4, 4, 1, 1, 1): _classes(GaleDiagram((4, 4, 1, 1, 1)))})
    assert record == {"members": [{"weights": [4, 4, 1, 1, 1], "charmat_count": 159}],
                      "pairs": [], "verdict": "B-RIGID-WITHIN-FAMILY"}
    assert calls == {}

    flagship = [(2, 2, 2, 1, 1), (3, 1, 2, 1, 1)]
    record = classify({w: _classes(GaleDiagram(w)) for w in flagship})
    assert record["pairs"] == [{"left": [2, 2, 2, 1, 1], "right": [3, 1, 2, 1, 1],
                                "checked": 441, "isomorphisms_found": 0}]
    assert record["verdict"] == "NOT-B-RIGID; C-RIGID-WITHIN-CLASS"

    assert main(["iso", "2,2,2,1,1", "2,2,2,1,1"]) == 0
    self_isos = int(capsys.readouterr().out.split()[0])
    same = _classes(GaleDiagram(flagship[0]))
    record = classify(dict.fromkeys(flagship, same))
    [pair] = record["pairs"]
    assert (pair["checked"], pair["isomorphisms_found"]) == (441, self_isos)
    assert self_isos > 0
    assert record["verdict"] == "NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND"


def test_parser_is_built_once_and_leaks_no_flag(capsys):
    """The argparse parser is built once per process, and main fills a
    fresh namespace per call: each call still prints what a fresh process
    prints, with an exit-2 call between any two, so no flag value
    (--matrix, --json) reaches a later call."""
    from galerig.cli import build_parser

    assert build_parser() is build_parser()
    calls = [["profile", "3,1,2,1,1", "--matrix", "2"], ["profile", "3,1,2,1,1"],
             ["report", "2,2,2,1,1", "--json"], ["report", "2,2,2,1,1"]]
    outputs = []
    for argv in calls:
        assert main(["charmats", "15,1,1,1,1"]) == 2
        assert "MAX_FACETS" in capsys.readouterr().err
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert run_cli(*argv) == (0, outputs[-1], ""), argv
    # one row per table for --matrix 2, then all 21 rows in each
    assert [len(out.splitlines()) for out in outputs[:2]] == [2 + 1 + 2 + 1, 2 + 21 + 2 + 21]
    assert outputs[2].startswith("{") and outputs[3].startswith("input weights:")


def test_report_verify_profiles_each_row_once(monkeypatch):
    """The codim and ord tables of a family share their 11 rows, so 22
    reference quotients need 22 profiles."""
    import galerig.verify

    calls = []
    profile = galerig.verify.invariant_profile

    def counted(*args):
        calls.append(1)
        return profile(*args)

    monkeypatch.setattr(galerig.verify, "invariant_profile", counted)
    assert main(["report", "3,1,2,1,1", "--verify"]) == 0
    assert len(calls) == 22


def test_profile_builds_no_quotient(monkeypatch, capsys):
    """profile reads each matrix's codim/ord off its top functional, one per
    matrix, and builds no quotient, nor does cohomology, which reads each
    ideal off the same functionals, all from one top_functionals call;
    report --verify still builds the 42 published blocks."""
    import galerig.cli
    import galerig.verify

    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    count(galerig.cli, "quotient_presentation")
    count(galerig.verify, "quotient_presentation")
    count(galerig.cli, "invariant_profile")
    count(galerig.cli, "top_functionals")
    assert main(["profile", "3,1,2,1,1"]) == 0
    assert calls == {"invariant_profile": 21, "top_functionals": 1}
    for argv in (["cohomology", "3,1,2,1,1"], ["cohomology", "3,1,2,1,1", "--json"]):
        calls.clear()
        assert main(argv) == 0
        assert calls == {"top_functionals": 1}, argv
    calls.clear()
    assert main(["report", "3,1,2,1,1", "--verify"]) == 0
    assert calls == {"quotient_presentation": 42, "top_functionals": 2}


def test_profile_matrix_labels_its_row(capsys):
    """--matrix k prints matrix k's row under its own index, the entry k of
    the full run."""
    assert main(["profile", "3,1,2,1,1", "--json"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert main(["profile", "3,1,2,1,1", "--matrix", "5", "--json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["matrix"] == 5
    assert entry == full[4]
    assert main(["profile", "3,1,2,1,1", "--matrix", "5"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "|" in line]
    assert [row.split("|")[0].strip() for row in rows] == ["matrix", "5", "matrix", "5"]


def test_report_cache_path_is_a_file(tmp_path, capsys):
    target = tmp_path / "not-a-directory"
    target.write_text("")
    assert main(["report", "1,1,1,1,1", "--cache", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_report_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["report", "3,1,2,1,1", "--cache", str(cache), "--json"]) == 0
    first = capsys.readouterr().out
    files = sorted(p.name for p in cache.iterdir())
    assert files == ["2-2-2-1-1.charmats.json", "3-1-2-1-1.charmats.json"]
    assert main(["report", "3,1,2,1,1", "--cache", str(cache), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_report_verify_diffs_the_reports_matrices(monkeypatch, capsys):
    """--verify enumerates each reference list on the report's face
    structure and diffs it, so a list cut short fails it, while iso_pairs
    still counts the pairs the report compared."""
    import galerig.verify
    from galerig.gale import GaleDiagram, face_structure

    enumerate_charmats = galerig.verify.enumerate_charmats
    fs_a = face_structure(GaleDiagram((3, 1, 2, 1, 1)))

    def cut(fs):
        blocks = enumerate_charmats(fs)
        return blocks[:3] if fs == fs_a else blocks

    monkeypatch.setattr(galerig.verify, "enumerate_charmats", cut)
    assert main(["report", "3,1,2,1,1", "--verify", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    v = report["verification"]
    assert v["passed"] is False
    assert v["matrices"]["A"]["ok"] is False and len(v["matrices"]["A"]["missing"]) == 18
    assert v["matrices"]["B"]["ok"] is True
    assert v["iso_pairs"] == report["pairs"][0]["checked"] == 441


def test_report_verify_checks_the_counts_report_prints(monkeypatch, capsys):
    """--verify checks the matrix counts of the path that plain report
    runs: a canonical tuple of [3,1,2,1,1] lost there fails family A,
    though its enumerated list matches the published one."""
    import galerig.cli
    from galerig.gale import GaleDiagram, face_structure

    canonical_charmats = galerig.cli.canonical_charmats
    fs_a = face_structure(GaleDiagram((3, 1, 2, 1, 1)))

    def cut(fs):
        canonical = canonical_charmats(fs)
        if fs == fs_a:
            del canonical[next(reversed(canonical))]
        return canonical

    assert main(["report", "3,1,2,1,1", "--verify", "--json"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(galerig.cli, "canonical_charmats", cut)
    assert main(["report", "3,1,2,1,1", "--verify", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    v = report["verification"]
    assert v["passed"] is False
    a = v["matrices"]["A"]
    assert a["ok"] is False and a["missing"] == [] and a["extra"] == [] and a["matched"] == 21
    assert v["matrices"]["B"]["ok"] is True
    counts = {tuple(m["weights"]): m["charmat_count"] for m in report["members"]}
    assert counts[(3, 1, 2, 1, 1)] < 21 == counts[(2, 2, 2, 1, 1)]
    assert v["iso_pairs"] == report["pairs"][0]["checked"] == counts[(3, 1, 2, 1, 1)] * 21


def test_report_verify_leaves_out_generators_above_degree_n_plus_1(monkeypatch, capsys):
    """A published generator above degree n + 1 lies in every ideal full in
    degree n + 1, so --verify compares the others: x^7 added to row A1
    (n = 5) keeps the row ok, and with one of its generators dropped as
    well the row fails."""
    import galerig.verify

    tables = galerig.verify.ideal_tables()
    a1 = next(i for i, row in enumerate(tables) if row["labels"] == ["A1"])

    def verify_with(generators):
        rows = list(tables)
        rows[a1] = {**tables[a1], "generators": generators}
        monkeypatch.setattr(galerig.verify, "ideal_tables", lambda: tuple(rows))
        code = main(["report", "3,1,2,1,1", "--verify", "--json"])
        return code, json.loads(capsys.readouterr().out)["verification"]["ideal_rows"][a1]

    published = tables[a1]["generators"]
    code, row = verify_with(published + ["x^7"])
    assert code == 0 and row["labels"] == ["A1"] and row["ok"] is True
    code, row = verify_with(published[1:] + ["x^7"])
    assert code == 1 and row["matches"] is False and row["ok"] is False


def _cache_record(weights, capsys):
    """The record --cache writes for a diagram: charmats --json's weights
    and blocks."""
    assert main(["charmats", weights, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    return {"weights": data["weights"], "blocks": data["blocks"]}


def test_report_cache_cut_list_rejected(tmp_path, capsys):
    """A cache file is never read, so a matrix list cut short changes
    nothing: the report is the uncached one, nothing is printed on stderr,
    and the file is overwritten with the enumeration."""
    code, clean, err = run_cli("report", "3,1,2,1,1")
    assert code == 0 and err == ""
    cache = tmp_path / "cache"
    assert main(["report", "3,1,2,1,1", "--cache", str(cache)]) == 0
    assert capsys.readouterr().out == clean
    path = cache / "3-1-2-1-1.charmats.json"
    data = json.loads(path.read_text())
    data["blocks"] = data["blocks"][:3]
    path.write_text(json.dumps(data))
    code, out, err = run_cli("report", "3,1,2,1,1", "--cache", str(cache))
    assert code == 0 and err == ""
    assert out == clean
    assert json.loads(path.read_text()) == _cache_record("3,1,2,1,1", capsys)


def test_report_cache_corruption_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["report", "1,1,1,1,1", "--cache", str(cache), "--json"]) == 0
    good = capsys.readouterr().out
    path = cache / "1-1-1-1-1.charmats.json"
    path.write_text("{ not json")
    code, out, err = run_cli("report", "1,1,1,1,1", "--cache", str(cache), "--json")
    assert code == 0 and err == ""
    assert out == good
    assert json.loads(path.read_text()) == _cache_record("1,1,1,1,1", capsys)


def test_report_cache_swap_rejected(tmp_path, capsys):
    """A matrix file of another class member is never read, and is
    overwritten with the report's own list."""
    cache = tmp_path / "cache"
    assert main(["report", "3,1,2,1,1", "--cache", str(cache), "--json"]) == 0
    good = capsys.readouterr().out
    assert main(["report", "3,1,2,1,1", "--cache", str(cache), "--json"]) == 0
    assert capsys.readouterr().err == ""  # a valid warm cache is silent

    own = cache / "3-1-2-1-1.charmats.json"
    own.write_text((cache / "2-2-2-1-1.charmats.json").read_text())
    assert main(["report", "3,1,2,1,1", "--cache", str(cache), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == good
    assert json.loads(own.read_text()) == _cache_record("3,1,2,1,1", capsys)


def test_quotients_built_only_where_compared(monkeypatch, tmp_path):
    """A report builds each member's face structure once and, under every
    flag, finds its matrices as canonical tuples (canonical_charmats) and
    groups them into automorphism orbits (orbit_sizes) in one pass each.
    --cache enumerates each member's list once more (enumerate_charmats)
    to write it, a warm cache too, whose files it rewrites with the same
    bytes; --verify enumerates each reference list once to diff it.  The
    keys need no quotient, so only --verify builds any: the 42 published
    blocks.  A singleton class is B-rigid by its matrix count, read off the
    same one orbit pass; iso lists its matrices (enumerate_charmats,
    orbits), and a diagram compared with itself is enumerated and grouped
    once."""
    import galerig.cli
    import galerig.verify

    names = ("face_structure", "enumerate_charmats", "canonical_charmats",
             "quotient_presentation", "orbits", "orbit_sizes")
    calls = Counter()

    def counted(name):
        fn = getattr(galerig.cli, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        wrapper = counted(name)
        # verify builds quotients but never groups matrices into orbits
        shared = name in ("face_structure", "enumerate_charmats", "quotient_presentation")
        for module in (galerig.cli, galerig.verify) if shared else (galerig.cli,):
            monkeypatch.setattr(module, name, wrapper)
    cache = tmp_path / "cache"
    assert main(["report", "3,1,2,1,1", "--cache", str(cache)]) == 0
    written = {p: p.read_bytes() for p in cache.iterdir()}
    for argv, expected in ((["report", "3,1,2,1,1", "--verify"], (2, 2, 2, 42, 0, 2)),
                           (["report", "3,1,2,1,1", "--cache", str(cache)], (2, 2, 2, 0, 0, 2)),
                           (["report", "3,1,2,1,1"], (2, 0, 2, 0, 0, 2)),
                           (["report", "7,1,1,1,1"], (1, 0, 1, 0, 0, 1)),
                           (["iso", "4,1,1,1,1", "4,1,1,1,1"], (1, 1, 0, 0, 1, 0))):
        calls.clear()
        assert main(argv) == 0
        assert tuple(calls[name] for name in names) == expected, argv
    assert {p: p.read_bytes() for p in cache.iterdir()} == written


def test_report_verify_reads_class_and_ideal_rows_once(monkeypatch):
    """report --verify reads the Tor class once, and saturates each of the
    21 published ideal rows once: a row's labels share one ideal."""
    import galerig.cli
    import galerig.verify

    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(galerig.cli, "tor_class")
    counted(galerig.verify, "ideal_equal")
    assert main(["report", "3,1,2,1,1", "--verify"]) == 0
    assert calls == {"tor_class": 1, "ideal_equal": 21}


def test_max_facets_refused_before_enumerating(capsys, monkeypatch):
    from galerig.cli import MAX_FACETS

    def never(fs):
        raise AssertionError("enumerated a refused diagram")

    assert MAX_FACETS >= 14
    big = f"{MAX_FACETS - 3},1,1,1,1"
    with monkeypatch.context() as patch:
        patch.setattr("galerig.cli.enumerate_charmats", never)
        for argv in (["charmats", big], ["cohomology", big], ["profile", big],
                     ["iso", big, "1,1,1,1,1"], ["iso", "1,1,1,1,1", big], ["report", big],
                     ["charmats", "100,1,1,1,1"]):
            assert main(argv) == 2, argv
            assert "MAX_FACETS" in capsys.readouterr().err
    assert main(["charmats", f"{MAX_FACETS - 4},1,1,1,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2 ** (MAX_FACETS - 3) + 1


def test_entry_point_help():
    code, out, _ = run_cli("--help")
    assert code == 0
    for sub in ("betti", "torclass", "charmats", "cohomology", "profile", "iso", "report"):
        assert sub in out


def test_closed_stdout_is_no_input_error():
    """A reader that stops early (`charmats 10,1,1,1,1 | head -1`, 105,605
    bytes) leaves stderr empty and the SIGPIPE status 141, not exit 2."""
    proc = subprocess.Popen([sys.executable, "-m", "galerig.cli", "charmats", "10,1,1,1,1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "2049 characteristic matrices (identity prefix omitted):\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == ""


def _fresh_modules(code, *argv):
    """The last stdout line of a fresh interpreter running code, split."""
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1].split()


def test_fresh_import_is_lean():
    """A fresh process pays only for what every command uses: the record
    classes need no dataclasses (which pulls in inspect); verify, with its
    bundled tables, and json are imported by the commands that use them, and
    argparse by help and the command lines main does not parse itself; and
    importing the package or galerig.cli runs no cohomology or gf2, whose
    names are resolved on first use, and no petersen, which no command
    loads."""
    added = set(_fresh_modules("import sys; before = set(sys.modules); import galerig.cli; "
                               "print(*sorted(set(sys.modules) - before))"))
    assert "galerig.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "galerig.verify", "galerig.cohomology",
                        "galerig.gf2", "galerig.petersen", "argparse"}
    added = _fresh_modules("import sys; import galerig; "
                           "print(*sorted(m for m in sys.modules if m.startswith('galerig')))")
    assert added == ["galerig"]


def test_package_and_cli_names_resolve_on_first_access():
    """Each name galerig.cli binds on first use resolves from outside to
    its defining module's object."""
    import galerig.cli

    for module, names in galerig.cli._DEFERRED.items():
        source = importlib.import_module(f"galerig.{module}")
        for name in names:
            assert getattr(galerig.cli, name) is getattr(source, name), name
    with pytest.raises(AttributeError):
        galerig.cli.no_such_name


# galerig.petersen only re-exports betti_group for an older import path:
# no command loads it
_WATCHED = ("galerig.cohomology", "galerig.gf2", "galerig.verify", "json", "galerig.petersen",
            "argparse")
_KEYED = {"galerig.cohomology", "galerig.gf2"}


def _loaded_by(*argv):
    """Which modules of _WATCHED a fresh interpreter has loaded once it has
    run the command argv."""
    code = ("import contextlib, sys; from galerig.cli import main\n"
            "with contextlib.suppress(SystemExit): main(sys.argv[1:])\n"
            f"print('loaded:', *(m for m in {_WATCHED!r} if m in sys.modules))")
    return set(_fresh_modules(code, *argv)[1:])


@pytest.mark.parametrize("argv, loaded", [
    (["betti", "3,1,2,1,1"], set()),
    (["betti", "3,1,2,1,1", "--json"], {"json"}),
    (["torclass", "3,1,2,1,1"], set()),
    (["charmats", "3,1,2,1,1"], set()),
    (["iso", "3,1,2,1,1", "2,2,2,1,1"], _KEYED),
    (["cohomology", "3,1,2,1,1", "--matrix", "1"], _KEYED),
    (["profile", "3,1,2,1,1", "--matrix", "1"], _KEYED),
    # help and an abbreviated option are argparse's to parse
    (["--help"], {"argparse"}),
    (["betti", "3,1,2,1,1", "--js"], {"argparse", "json"}),
])
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    assert _loaded_by(*argv) == loaded


def test_fresh_import_without_site_skips_pathlib(tmp_path):
    """Without site, which may import pathlib itself, importing galerig.cli
    loads no pathlib, and report --cache still writes each member's file."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import galerig.cli; "
            "loaded = 'pathlib' in sys.modules; "
            "code = galerig.cli.main(['report', '3,1,2,1,1', '--cache', sys.argv[2]]); "
            "print(loaded, code)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src, str(tmp_path / "cache")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1].split() == ["False", "0"]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == \
        ["2-2-2-1-1.charmats.json", "3-1-2-1-1.charmats.json"]


def test_report_imports_verify_only_under_verify():
    """report keys matrices, with cohomology and gf2, only for a class of
    two or more members: a singleton class or a heptagon loads neither."""
    assert _loaded_by("report", "3,1,2,1,1") == _KEYED
    assert _loaded_by("report", "3,1,2,1,1", "--verify") == \
        _KEYED | {"galerig.verify", "json"}
    assert _loaded_by("report", "3,1,2,1,1", "--json") == _KEYED | {"json"}
    assert _loaded_by("report", "4,4,1,1,1") == set()
    assert _loaded_by("report", "2,2,1,1,1,1,1") == set()


# ---------------------------------------------------------------------------
# the command table: main's own parse against argparse's


def _well_formed(tmp):
    """Every command with every subset of its options, in every order, each
    option before, between or after the positionals, once each."""
    from galerig.cli import COMMANDS

    values = {"--matrix": "2", "--cache": str(tmp)}
    found = {}
    for name, (_, _, positionals, options) in COMMANDS.items():
        words = ["3,1,2,1,1", "2,2,2,1,1"][:len(positionals)]
        flags = [flag for flag, _, _, _ in options]
        for size in range(len(flags) + 1):
            for chosen in permutations(flags, size):
                for slots in product(range(len(words) + 1), repeat=size):
                    argv = list(words)
                    for flag, slot in sorted(zip(chosen, slots), key=lambda fs: -fs[1]):
                        argv[slot:slot] = [flag, values[flag]] if flag in values else [flag]
                    found[(name, *argv)] = None
    return [list(argv) for argv in found]


def test_direct_parse_is_argparse_on_every_well_formed_command_line(tmp_path):
    from galerig.cli import _direct_parse, build_parser

    argvs = _well_formed(tmp_path)
    for argv in argvs:
        direct = _direct_parse(argv)
        assert direct is not None, argv
        assert vars(direct) == vars(build_parser().parse_args(argv)), argv
    # k of a command's options, in order, in the s + 1 slots around its s
    # positionals: (k + s)! / s! command lines per k-subset.  betti, torclass, charmats: 1 + 2; cohomology,
    # profile: 1 + 2 * 2 + 6; iso: 1 + 3; report: 1 + 3 * 2 + 3 * 6 + 24
    assert len(argvs) == 3 * 3 + 2 * 11 + 4 + 49


def test_direct_parse_converts_matrix_as_argparse_does():
    from galerig.cli import _direct_parse, build_parser

    for value in ("7", "+7", " 7", "0", "1_0"):
        argv = ["profile", "3,1,2,1,1", "--matrix", value]
        assert vars(_direct_parse(argv)) == vars(build_parser().parse_args(argv))
    assert _direct_parse(["profile", "3,1,2,1,1", "--matrix", "1_0"]).matrix == 10


# (argv, exit code, start of stderr): help, abbreviations, --opt=value, --,
# repeated options, values and positionals starting with "-", bad ints,
# unknown options, missing or extra tokens and an empty argv, all
# argparse's to parse
_USAGE = "usage: galerig"
DECLINED = [
    (["--help"], 0, ""),
    (["report", "-h"], 0, ""),
    (["report", "3,1,2,1,1", "--ver"], 0, ""),
    (["betti", "3,1,2,1,1", "--js"], 0, ""),
    (["profile", "3,1,2,1,1", "--matrix=2"], 0, ""),
    (["profile", "3,1,2,1,1", "--matrix", "x"], 2, _USAGE),
    # argparse takes -1 for a negative number, and main refuses the index
    (["profile", "3,1,2,1,1", "--matrix", "-1"], 2, "error: --matrix must be in 1..21"),
    (["betti", "3,1,2,1,1", "--json", "--json"], 0, ""),
    (["betti", "--", "3,1,2,1,1"], 0, ""),
    (["betti", "-3,1,1,1,1"], 2, _USAGE),
    (["report", "3,1,2,1,1", "--nope"], 2, _USAGE),
    (["betti", "3,1,2,1,1", "--matrix", "2"], 2, _USAGE),
    (["iso", "3,1,2,1,1"], 2, _USAGE),
    (["betti", "3,1,2,1,1", "2,2,2,1,1"], 2, _USAGE),
    (["report", "3,1,2,1,1", "--cache"], 2, _USAGE),
    (["spam", "3,1,2,1,1"], 2, _USAGE),
    ([], 2, _USAGE),
]


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, err", DECLINED,
                         ids=[" ".join(argv) or "empty" for argv, _, _ in DECLINED])
def test_declined_command_lines_go_to_argparse(argv, code, err, capsys, monkeypatch):
    """main declines to parse these itself and prints what argparse alone
    prints: help, usage and errors, with their exit codes."""
    import galerig.cli

    assert galerig.cli._direct_parse(argv) is None
    outcome = _outcome(argv, capsys)
    assert outcome[0] == code
    assert outcome[2].startswith(err) and bool(outcome[2]) == bool(err)
    monkeypatch.setattr(galerig.cli, "_direct_parse", lambda argv: None)
    assert _outcome(argv, capsys) == outcome


def test_well_formed_command_lines_run_as_under_argparse(capsys, monkeypatch):
    import galerig.cli

    argvs = [["report", "3,1,2,1,1", "--json"], ["iso", "3,1,2,1,1", "--json", "2,2,2,1,1"],
             ["profile", "--matrix", "3", "2,2,2,1,1"], ["charmats", "15,1,1,1,1"]]
    direct = [_outcome(argv, capsys) for argv in argvs]
    monkeypatch.setattr(galerig.cli, "_direct_parse", lambda argv: None)
    assert [_outcome(argv, capsys) for argv in argvs] == direct
    assert [code for code, _, _ in direct] == [0, 0, 0, 2]


def test_cohomology_json_streams_the_bytes_of_one_dump(capsys):
    """--json writes one record at a time, in the bytes json.dumps gives
    the whole list; a diagram without matrices prints []."""
    for argv in (["cohomology", "2,2,2,1,1", "--json"], ["cohomology", "1,1,1,1,1,1,1,1,1", "--json"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert out == "[]\n"
