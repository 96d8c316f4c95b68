"""Command-line interface: per-stage subcommands plus the full rigidity
report with optional caching and fixture verification.  The library returns
plain data (Betti tables, profiles, quotients); every printed shape, text
or JSON, is written here.

Every command that needs characteristic matrices gets them from _matrices,
which always enumerates; report --cache only writes each member's list, so
a cache file can never shrink or replace the enumeration.  iso and report
compare one isomorphism key per matrix (_matrix_keys): one socle functional
per orbit of matrices under the automorphisms of the polytope, the
same-label facet permutations and the weight-preserving symmetries of the
polygon (charmat.orbits), each read off its representative's top degree
(cohomology.top_functional), and every matrix takes its orbit's key.
report keys a Tor class in one pass, its members in sorted order sharing
one h-vector, since they share one Betti table, and one {phi: key} map:
each member but the last fills the GL(3, GF(2)) orbit of each of its key
classes not yet in the map, and the last fills none, since a phi missing
there matches no earlier member and no pair count reads its key.  Only
cohomology and report --verify build quotients.

A fresh process imports only what its command uses: galerig.verify, with
its bundled tables, under report --verify, and json under --json and
--cache.

Exit codes: 0 success, 1 fixture mismatch under --verify, 2 invalid input
or an unusable --cache path, 141 when the reader closed stdout early.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import lru_cache

from .betti import betti_table, h_vector, supports_quasitoric
from .charmat import enumerate_charmats, orbits, row_strings
from .charmat import is_characteristic  # noqa: F401 (tracer)
from .cohomology import (
    LINEAR_FORM_NAMES,
    invariant_profile,
    iso_keys,
    quotient_presentation,
    top_functional,
)
from .gale import GaleDiagram, canonical_weights, face_structure
from .gf2 import format_poly, to_lists
from .petersen import tor_class


# Largest facet count accepted by the commands that enumerate characteristic
# matrices, whose number grows exponentially in m ((a,1,1,1,1) has
# 2^(a+1)+1).  At m = 14, (10,1,1,1,1) has 2049 matrices in 12 orbits (no
# pentagon at m = 14 has more than 34); a fresh `iso` of it takes about
# 0.21 s, `profile` 1.2 s and `cohomology` 3.5 s, 17 s under --json (README,
# "MAX_FACETS").  Larger diagrams are refused with exit 2.
MAX_FACETS = 14


def _parse_weights(text: str) -> GaleDiagram:
    try:
        weights = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"weights must be comma-separated integers, got {text!r}")
    return GaleDiagram(weights)


def _enumerable(diagram: GaleDiagram) -> GaleDiagram:
    if diagram.m > MAX_FACETS:
        raise ValueError(f"{diagram.m} facets exceed MAX_FACETS = {MAX_FACETS}, the largest "
                         "diagram whose characteristic matrices are enumerated")
    return diagram


def _emit(data, as_json: bool, text: str):
    if as_json:
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# characteristic matrices


def _matrices(diagram: GaleDiagram):
    """Face structure and characteristic matrices of a diagram, always
    enumerated."""
    fs = face_structure(diagram)
    return fs, enumerate_charmats(fs)


# ---------------------------------------------------------------------------
# subcommands


def _betti_json(table: dict) -> dict:
    return {"entries": [{"i": i, "2j": twoj, "beta": b} for (i, twoj), b in table.items()]}


def cmd_betti(args) -> int:
    table = betti_table(_parse_weights(args.weights))
    lines = [f"beta^({-i},{twoj}) = {b}" for (i, twoj), b in table.items()]
    _emit(_betti_json(table), args.json, "\n".join(lines))
    return 0


def cmd_torclass(args) -> int:
    diagram = _parse_weights(args.weights)
    if diagram.k != 2:
        raise ValueError("Tor-class search requires a pentagon diagram (k = 2)")
    members = tor_class(diagram.weights)
    _emit([list(w) for w in members], args.json,
          "\n".join(str(list(w)) for w in members))
    return 0


def cmd_charmats(args) -> int:
    diagram = _enumerable(_parse_weights(args.weights))
    _, blocks = _matrices(diagram)
    rows = [row_strings(b) for b in blocks]
    text = [f"{len(blocks)} characteristic matrices (identity prefix omitted):"]
    text += [f"  {i + 1:3d}: " + " ".join(r) for i, r in enumerate(rows)]
    _emit({"weights": list(diagram.weights), "count": len(blocks), "blocks": rows},
          args.json, "\n".join(text))
    return 0


def _selected_matrices(diagram, index: int | None):
    """Face structure and the (1-based index, matrix) pairs that --matrix
    selects, every matrix by default."""
    fs, blocks = _matrices(diagram)
    if index is None:
        return fs, list(enumerate(blocks, start=1))
    if not blocks:
        raise ValueError("--matrix selects nothing: the diagram has no characteristic matrices")
    if not 1 <= index <= len(blocks):
        raise ValueError(f"--matrix must be in 1..{len(blocks)}")
    return fs, [(index, blocks[index - 1])]


def _matrix_keys(fs, blocks, h, known=None, fill=True) -> list[tuple]:
    """The isomorphism key of each matrix, in list order, given the
    polytope's h-vector h.  One socle functional is computed, from the top
    degree alone and checked against h, per orbit (charmat.orbits), for its
    representative, whose key every member takes (known and fill go to
    iso_keys); no quotient is built."""
    representatives = orbits(fs, blocks)
    distinct = list(dict.fromkeys(representatives))
    functionals = [top_functional(fs, blocks[r], h) for r in distinct]
    key = dict(zip(distinct, iso_keys(fs.n, h, functionals, known, fill)))
    return [key[r] for r in representatives]


def cmd_cohomology(args) -> int:
    diagram = _enumerable(_parse_weights(args.weights))
    fs, selected = _selected_matrices(diagram, args.matrix)
    records = []
    for _, block in selected:
        q = quotient_presentation(fs, block)
        record = {"block": row_strings(block), "n": q.n, "hilbert": list(q.hilbert),
                  "generators": [format_poly(g) for g in q.generators]}
        if args.json:  # the ideal's rows only --json prints
            record["ideal"] = {str(d): [to_lists(d, row) for row in q.ideal.rows(d)]
                               for d in range(q.ideal.max_degree + 1)}
        records.append(record)
    text = [f"{' '.join(r['block'])}\n  hilbert: {r['hilbert']}\n"
            f"  generators: {', '.join(r['generators'])}" for r in records]
    _emit(records, args.json, "\n".join(text))
    return 0


def cmd_profile(args) -> int:
    diagram = _enumerable(_parse_weights(args.weights))
    fs, selected = _selected_matrices(diagram, args.matrix)
    h = h_vector(diagram)
    profiles = [(i, invariant_profile(top_functional(fs, block, h), fs.n))
                for i, block in selected]
    header = "matrix | " + " ".join(f"{name:>6}" for name in LINEAR_FORM_NAMES)
    lines = ["codim", header]
    payload = []
    for i, prof in profiles:
        lines.append(f"{i:6d} | " + " ".join(f"{v:6d}" for v in prof["codim"]))
        payload.append({"matrix": i, **prof})
    lines += ["ord", header]
    for i, prof in profiles:
        lines.append(f"{i:6d} | " + " ".join(f"{v:6d}" for v in prof["ord"]))
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_iso(args) -> int:
    d1 = _enumerable(_parse_weights(args.weights))
    d2 = _enumerable(_parse_weights(args.weights2))
    keys = {d: _matrix_keys(*_matrices(d), h_vector(d)) for d in dict.fromkeys((d1, d2))}
    keys_1, keys_2 = keys[d1], keys[d2]
    # a pair is isomorphic iff its keys are equal: one row per distinct key
    rows = {key: [int(key == other) for other in keys_2] for key in dict.fromkeys(keys_1)}
    matrix = [rows[key] for key in keys_1]
    found = sum(sum(row) for row in matrix)
    text = [f"{found} graded isomorphisms over {len(keys_1)}x{len(keys_2)} pairs"]
    lines = {key: "".join("X" if hit else "." for hit in row) for key, row in rows.items()}
    text += [lines[key] for key in keys_1]
    _emit({"found": found, "pairs": len(keys_1) * len(keys_2), "matrix": matrix},
          args.json, "\n".join(text))
    return 0


def cmd_report(args) -> int:
    diagram = _parse_weights(args.weights)
    if not supports_quasitoric(diagram.k):
        print(f"refusing: a (2k+1)-gon diagram with k = {diagram.k} supports no "
              "quasitoric manifold (supported iff k <= 3)", file=sys.stderr)
        return 2
    members = sorted(tor_class(diagram.weights)) if diagram.k == 2 else []
    if args.verify:
        # loaded only here, with its bundled tables: no other command pays
        # for the import
        from . import verify

        if set(members) != {verify.WEIGHTS_A, verify.WEIGHTS_B}:
            print("refusing --verify: reference fixtures cover the class of "
                  "[3,1,2,1,1] and [2,2,2,1,1] only", file=sys.stderr)
            return 2
    report = {
        "input_weights": list(diagram.weights),
        "canonical_weights": list(canonical_weights(diagram.weights)),
        "k": diagram.k,
        "supports_quasitoric": True,
    }
    if diagram.k != 2:
        table = betti_table(diagram)
        notice = "Tor-class search is implemented for pentagon diagrams only; emitting Betti data."
        report.update(notice=notice, betti=_betti_json(table), verdict="UNDETERMINED")
        text = [notice] + [f"beta^({-i},{twoj}) = {b}" for (i, twoj), b in table.items()] + \
               ["verdict: UNDETERMINED"]
        _emit(report, args.json, "\n".join(text))
        return 0

    _enumerable(diagram)  # every class member has the same facet count
    matrices = {w: _matrices(GaleDiagram(w)) for w in members}
    if args.cache:
        import json

        os.makedirs(args.cache, exist_ok=True)
        for w, (_, blocks) in matrices.items():
            record = {"weights": list(w), "blocks": [row_strings(b) for b in blocks]}
            path = os.path.join(args.cache, f"{'-'.join(map(str, w))}.charmats.json")
            with open(path, "w") as f:
                f.write(json.dumps(record, indent=2, sort_keys=True))
    member_info = [{"weights": list(w), "charmat_count": len(matrices[w][1])} for w in members]

    # A singleton class is B-rigid by its matrix count alone, so matrices are
    # keyed only when there is a pair to compare: per member, how many
    # matrices have each key, the last member filling no orbit (module
    # docstring).  The members share one Betti table, hence one h-vector.
    known: dict = {}
    keys = []
    if len(members) > 1:
        h = h_vector(diagram)
        keys = [Counter(_matrix_keys(*matrices[w], h, known, w != members[-1]))
                for w in members]

    pairs = []
    total_found = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            found = sum(count * keys[j][key] for key, count in keys[i].items())
            total_found += found
            pairs.append({
                "left": list(members[i]),
                "right": list(members[j]),
                "checked": member_info[i]["charmat_count"] * member_info[j]["charmat_count"],
                "isomorphisms_found": found,
            })

    if len(members) == 1:
        verdict = "B-RIGID-WITHIN-FAMILY"
    elif total_found == 0:
        verdict = "NOT-B-RIGID; C-RIGID-WITHIN-CLASS"
    else:
        verdict = "NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND"

    report.update(tor_class=[list(w) for w in members], members=member_info,
                  pairs=pairs, verdict=verdict)

    exit_code = 0
    if args.verify:
        report["verification"] = verify.run_verification(total_found, matrices)
        if not report["verification"]["passed"]:
            exit_code = 1

    text = [
        f"input weights:     {report['input_weights']}",
        f"canonical form:    {report['canonical_weights']}",
        f"polygon:           2k+1 = {2 * diagram.k + 1} (k = {diagram.k}); "
        "supports quasitoric manifolds",
        f"Tor-class members: {len(members)}",
    ]
    for info in member_info:
        text.append(f"  {info['weights']}: {info['charmat_count']} characteristic matrices")
    if pairs:
        text.append("cross comparisons:")
        for p in pairs:
            text.append(f"  {p['left']} vs {p['right']}: {p['checked']} pairs "
                        f"checked, {p['isomorphisms_found']} graded isomorphisms")
    else:
        text.append("cross comparisons: none (singleton class)")
    if args.verify:
        v = report["verification"]
        text.append(f"verification: matrices ok={all(c['ok'] for c in v['matrices'].values())}, "
                    f"ideal rows ok={all(r['ok'] for r in v['ideal_rows'])}, "
                    f"profile discrepancies={len(v['profile_discrepancies'])} "
                    f"(all certified={all(d['certified'] for d in v['profile_discrepancies'])}), "
                    f"iso found={v['iso_found']}")
        for d in v["profile_discrepancies"]:
            text.append(f"  table {d['table']} row {d['row']} column {d['column']}: "
                        f"published {d['paper_value']}, computed {d['computed_value']}")
    text.append(f"verdict: {verdict}")
    _emit(report, args.json, "\n".join(text))
    return exit_code


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse_args
    call fills a fresh namespace, so a caller that runs main many times
    (a sweep in one interpreter) shares it without one call's flags
    reaching the next."""
    parser = argparse.ArgumentParser(
        prog="galerig",
        description="Rigidity computations for odd-gon Gale diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, extra=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("weights", help="comma-separated weights, e.g. 3,1,2,1,1")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(fn=fn)
        return p

    add("betti", cmd_betti, "bigraded Betti table of a diagram")
    add("torclass", cmd_torclass, "pentagon weight vectors with the same Tor-algebra")
    add("charmats", cmd_charmats, "enumerate mod-2 characteristic matrices")
    add("cohomology", cmd_cohomology, "cohomology quotient presentations",
        extra=[("--matrix", {"type": int, "default": None,
                             "help": "1-based matrix index (default: all)"})])
    add("profile", cmd_profile, "codim/ord tables of the linear forms",
        extra=[("--matrix", {"type": int, "default": None,
                             "help": "1-based matrix index (default: all)"})])
    p_iso = add("iso", cmd_iso, "pairwise graded-isomorphism matrix between two diagrams")
    p_iso.add_argument("weights2", help="second diagram's weights")
    add("report", cmd_report, "full rigidity report",
        extra=[("--cache", {"default": None, "help": "cache directory"}),
               ("--verify", {"action": "store_true",
                             "help": "diff all artifacts against the bundled tables"})])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout early (`| head -1`): that is no input
        # error.  Point stdout at devnull so the flush at exit stays quiet,
        # and exit with the status of a process ended by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
