"""Command-line interface: per-stage subcommands plus the full rigidity
report with optional caching and fixture verification.

Exit codes: 0 success, 1 fixture mismatch under --verify, 2 invalid input
or an unusable --cache path.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import verify as verify_mod
from .betti import betti_table, supports_quasitoric
from .charmat import enumerate_charmats, forms_from_rows, is_characteristic, row_strings
from .cohomology import (LINEAR_FORM_NAMES, invariant_profile, iso_key, pairwise_iso_matrix,
                         quotient_presentation)
from .gale import GaleDiagram, canonical_weights, face_structure
from .gf2 import format_poly
from .petersen import tor_class


# Largest facet count accepted by the commands that enumerate characteristic
# matrices.  Their number grows exponentially in m ((a,1,1,1,1) has
# 2^(a+1)+1), and all but `charmats` and a singleton-class `report` build a
# quotient for each.  On a 2-core x86 VM under Python 3.11, (10,1,1,1,1) at
# m = 14 enumerates its 2049 matrices in 0.03 s and builds their quotients
# in about 28 s; at m = 15 the quotients take about 76 s.
# Larger diagrams are refused with exit 2.
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
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# caching


def _cache_key(weights) -> str:
    return "-".join(str(w) for w in weights)


def _load_cache(path: Path, weights, parse):
    """parse(data) of a cache file written for these weights, or None after a
    warning when the file is corrupt, foreign or stale."""
    try:
        data = json.loads(path.read_text())
        if tuple(data["weights"]) != tuple(weights):
            raise ValueError("cached weights do not match")
        return parse(data)
    except Exception as err:  # recompute with a warning
        print(f"warning: ignoring cache {path}: {err}", file=sys.stderr)
        return None


def _cached_charmats(data, fs) -> list[tuple[int, ...]]:
    blocks = [forms_from_rows(rows) for rows in data["blocks"]]
    if not all(is_characteristic(b, fs) for b in blocks):
        raise ValueError("cached block is not characteristic")
    return blocks


def _member_matrices(weights, cache_dir: Path | None):
    """Face structure and characteristic matrices of one class member, the
    matrices cached as JSON keyed by the canonical weights when a directory
    is given."""
    fs = face_structure(GaleDiagram(weights))
    blocks = None
    path = None
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"{_cache_key(weights)}.charmats.json"
        if path.exists():
            blocks = _load_cache(path, weights, lambda data: _cached_charmats(data, fs))
    if blocks is None:
        blocks = enumerate_charmats(fs)
        if path is not None:
            path.write_text(json.dumps({
                "weights": list(weights),
                "blocks": [row_strings(b) for b in blocks],
            }, indent=2, sort_keys=True))
    return fs, blocks


# ---------------------------------------------------------------------------
# subcommands


def cmd_betti(args) -> int:
    diagram = _parse_weights(args.weights)
    table = betti_table(diagram)
    lines = [f"beta^({-i},{twoj}) = {b}" for (i, twoj), b in table.items()]
    _emit(table.to_json(), args.json, "\n".join(lines))
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
    blocks = enumerate_charmats(face_structure(diagram))
    rows = [row_strings(b) for b in blocks]
    text = [f"{len(blocks)} characteristic matrices (identity prefix omitted):"]
    text += [f"  {i + 1:3d}: " + " ".join(r) for i, r in enumerate(rows)]
    _emit({"weights": list(diagram.weights), "count": len(blocks), "blocks": rows},
          args.json, "\n".join(text))
    return 0


def _selected_quotients(diagram, index: int | None):
    fs = face_structure(diagram)
    blocks = enumerate_charmats(fs)
    if index is not None:
        if not 1 <= index <= len(blocks):
            raise ValueError(f"--matrix must be in 1..{len(blocks)}")
        blocks = [blocks[index - 1]]
    return blocks, [quotient_presentation(fs, b) for b in blocks]


def cmd_cohomology(args) -> int:
    diagram = _enumerable(_parse_weights(args.weights))
    blocks, quotients = _selected_quotients(diagram, args.matrix)
    payload, text = [], []
    for block, q in zip(blocks, quotients):
        payload.append({
            "block": row_strings(block),
            **q.to_json(),
            "generators": [format_poly(g) for g in q.generators],
        })
        text.append(" ".join(row_strings(block)))
        text.append(f"  hilbert: {list(q.hilbert)}")
        text.append("  generators: " + ", ".join(format_poly(g) for g in q.generators))
    _emit(payload, args.json, "\n".join(text))
    return 0


def cmd_profile(args) -> int:
    diagram = _enumerable(_parse_weights(args.weights))
    _, quotients = _selected_quotients(diagram, args.matrix)
    header = "matrix | " + " ".join(f"{name:>6}" for name in LINEAR_FORM_NAMES)
    lines = ["codim", header]
    payload = []
    profiles = [invariant_profile(q) for q in quotients]
    for i, prof in enumerate(profiles, start=1):
        lines.append(f"{i:6d} | " + " ".join(f"{v:6d}" for v in prof.codims))
        payload.append({"matrix": i, **prof.to_json()})
    lines += ["ord", header]
    for i, prof in enumerate(profiles, start=1):
        lines.append(f"{i:6d} | " + " ".join(f"{v:6d}" for v in prof.orders))
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_iso(args) -> int:
    d1 = _enumerable(_parse_weights(args.weights))
    d2 = _enumerable(_parse_weights(args.weights2))
    q1 = _selected_quotients(d1, None)[1]
    # a diagram compared with itself is built, and keyed, once
    q2 = q1 if d2.weights == d1.weights else _selected_quotients(d2, None)[1]
    matrix = pairwise_iso_matrix(q1, q2)
    found = sum(sum(row) for row in matrix)
    text = [f"{found} graded isomorphisms over {len(q1)}x{len(q2)} pairs"]
    text += ["".join("X" if hit else "." for hit in row) for row in matrix]
    _emit({"found": found, "pairs": len(q1) * len(q2),
           "matrix": [[int(v) for v in row] for row in matrix]},
          args.json, "\n".join(text))
    return 0


def cmd_report(args) -> int:
    diagram = _parse_weights(args.weights)
    if not supports_quasitoric(diagram.k):
        print(f"refusing: a (2k+1)-gon diagram with k = {diagram.k} supports no "
              "quasitoric manifold (supported iff k <= 3)", file=sys.stderr)
        return 2
    if args.verify:
        expected = {verify_mod.WEIGHTS_A, verify_mod.WEIGHTS_B}
        if diagram.k != 2 or set(tor_class(diagram.weights)) != expected:
            print("refusing --verify: reference fixtures cover the class of "
                  "[3,1,2,1,1] and [2,2,2,1,1] only", file=sys.stderr)
            return 2
    canonical = canonical_weights(diagram.weights)
    if diagram.k != 2:
        table = betti_table(diagram)
        report = {
            "input_weights": list(diagram.weights),
            "canonical_weights": list(canonical),
            "k": diagram.k,
            "supports_quasitoric": True,
            "notice": "Tor-class search is implemented for pentagon diagrams "
                      "only; emitting Betti data.",
            "betti": table.to_json(),
            "verdict": "UNDETERMINED",
        }
        text = [report["notice"]] + \
               [f"beta^({-i},{twoj}) = {b}" for (i, twoj), b in table.items()] + \
               [f"verdict: {report['verdict']}"]
        _emit(report, args.json, "\n".join(text))
        return 0

    _enumerable(diagram)  # every class member has the same facet count
    cache_dir = Path(args.cache) if args.cache else None
    members = sorted(tor_class(diagram.weights))
    matrices = {w: _member_matrices(w, cache_dir) for w in members}
    member_info = [{"weights": list(w), "charmat_count": len(matrices[w][1])} for w in members]

    # A singleton class is B-rigid by its matrix count alone, so quotients are
    # built, and keyed, only when there is a pair to compare: per member, the
    # quotient of each matrix and how many of them have each key.
    quotients = {}
    keys = []
    if len(members) > 1:
        for w in members:
            fs, blocks = matrices[w]
            quotients[w] = {b: quotient_presentation(fs, b) for b in blocks}
            keys.append(Counter(map(iso_key, quotients[w].values())))

    pairs = []
    total_found = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            found = sum(count * keys[j][key] for key, count in keys[i].items())
            total_found += found
            pairs.append({
                "left": list(members[i]),
                "right": list(members[j]),
                "checked": len(quotients[members[i]]) * len(quotients[members[j]]),
                "isomorphisms_found": found,
            })

    if len(members) == 1:
        verdict = "B-RIGID-WITHIN-FAMILY"
    elif total_found == 0:
        verdict = "NOT-B-RIGID; C-RIGID-WITHIN-CLASS"
    else:
        verdict = "NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND"

    report = {
        "input_weights": list(diagram.weights),
        "canonical_weights": list(canonical),
        "k": diagram.k,
        "supports_quasitoric": True,
        "tor_class": [list(w) for w in members],
        "members": member_info,
        "pairs": pairs,
        "verdict": verdict,
    }

    exit_code = 0
    if args.verify:
        result = verify_mod.run_verification(total_found, matrices, quotients)
        report["verification"] = result.to_json()
        if not result.passed:
            exit_code = 1

    text = [
        f"input weights:     {list(diagram.weights)}",
        f"canonical form:    {list(canonical)}",
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


def build_parser() -> argparse.ArgumentParser:
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
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
