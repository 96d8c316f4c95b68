"""Command-line interface: per-stage subcommands plus the full rigidity
report with optional caching and fixture verification.  The library returns
plain data (Betti tables, profiles, quotients); every printed shape, text
or JSON, is written here.

Every command that prints a matrix list (charmats, cohomology, profile,
iso) gets it from _matrices, which always enumerates.  report never
lists a member's matrices for its record: under every flag it reads
them off the canonical tuples, one entry per orbit, for a singleton class
too (_classes: charmat.canonical_charmats and charmat.orbit_sizes).
report --cache only writes each member's enumeration, so a cache file
can never shrink or replace it, and report --verify enumerates the two
reference lists itself (galerig.verify) and checks the report's counts
against them.  iso and
report compare one socle functional per orbit of matrices under the
automorphisms of the polytope, the same-label facet permutations and
the weight-preserving symmetries of the polygon, each read off its
representative's top degree, one cohomology.top_functionals call per
diagram, and keyed (_orbit_keys).  report counts each key with its
orbit's size (classify); iso gives every matrix of its lists its orbit's key
(_matrix_keys, charmat.orbits).  _class_keys keys the members of a Tor
class (report) or iso's one or two diagrams in one pass, one {phi: key}
map per h-vector, where the last of two or more members only looks its
keys up; classify turns the keys into the record report prints, with the
verdict.  cohomology and profile read each selected matrix's functional
from one top_functionals call too (_selected_functionals), and
cohomology prints the ideal it annihilates.
Only report --verify builds quotients.

The grammar is one table, COMMANDS: each command's handler, help,
positionals and long options.  main parses a well-formed command line
straight off it (_direct_parse) and hands every other argv, help and
errors included, to the argparse parser built from the same table
(build_parser), so argparse is imported only for those.

A fresh process imports only what its command uses: galerig.verify, with
its bundled tables, under report --verify, json under --json and
--cache, and argparse only for help or a command line _direct_parse
declines.  galerig.cohomology and galerig.gf2 are imported by the commands
that read socle functionals (iso, cohomology, profile,
and report on a class of two or more members); betti, torclass, charmats
and report on a singleton class or a heptagon import neither.  Their
names are bound into this module on first use (_bind), so with no
bytecode cache a command compiles only the modules it runs.  torclass and
report on a pentagon read the Tor class off betti.betti_group, which this
module binds as tor_class.

Exit codes: 0 success, 1 fixture mismatch under --verify, 2 invalid input
or an unusable --cache path, 141 when the reader closed stdout early.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

from .betti import betti_table, h_vector, supports_quasitoric
from .betti import betti_group as tor_class  # a pentagon's Betti group is its Tor class
from .charmat import canonical_charmats, enumerate_charmats, orbit_sizes, orbits, row_strings
from .charmat import is_characteristic  # noqa: F401 (tracer)
from .gale import GaleDiagram, canonical_weights, face_structure

# Names from modules that only some commands run, bound into this module's
# globals on first use (_bind) or on first access from outside
# (__getattr__).  Calls still look each name up here, so a wrapper that
# replaced one stays in place: _bind never overwrites a bound name.
_DEFERRED = {
    "cohomology": ("LINEAR_FORM_NAMES", "annihilator_rows", "generators", "invariant_profile",
                   "iso_keys", "top_functionals",
                   "quotient_presentation"),  # (tracer) no command here calls it
    "gf2": ("format_poly", "to_lists"),
}


def _bind(*modules: str) -> None:
    names = globals()
    for module in modules:
        # __import__, not importlib.import_module, so that -X importtime,
        # which times only the interpreter's own import path, lists it
        qualified = f"{__package__}.{module}"
        __import__(qualified)
        source = sys.modules[qualified]
        for name in _DEFERRED[module]:
            if name not in names:
                names[name] = getattr(source, name)


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Largest facet count accepted by the commands that enumerate characteristic
# matrices, whose number grows exponentially in m ((a,1,1,1,1) has
# 2^(a+1)+1).  At m = 14, (10,1,1,1,1) has 2049 matrices in 12 orbits (no
# pentagon at m = 14 has more than 34); a fresh `iso` of it takes about
# 0.11 s, `profile` 0.48 s and `cohomology` 0.37 s, 12 s under --json
# (medians of 3 on a 2-core x86 VM, no bytecode; README, "MAX_FACETS").
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
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# characteristic matrices


def _matrices(diagram: GaleDiagram):
    """Face structure and characteristic matrices of a diagram, always
    enumerated: the list that charmats, cohomology, profile and iso
    print or key."""
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


def _selected_functionals(args):
    """(face structure, h-vector, [(1-based index, matrix, socle
    functional)]) of the matrices that --matrix selects, every matrix by
    default: the functionals come from one top_functionals call, which
    checks each matrix and its duality."""
    diagram = _enumerable(_parse_weights(args.weights))
    fs, blocks = _matrices(diagram)
    selected = list(enumerate(blocks, start=1))
    if args.matrix is not None:
        if not blocks:
            raise ValueError("--matrix selects nothing: the diagram has no characteristic matrices")
        if not 1 <= args.matrix <= len(blocks):
            raise ValueError(f"--matrix must be in 1..{len(blocks)}")
        selected = [selected[args.matrix - 1]]
    h = h_vector(diagram)
    _bind("cohomology")
    phis = top_functionals(fs, [block for _, block in selected], h)
    return fs, h, [(i, block, phi) for (i, block), phi in zip(selected, phis)]


def _orbit_keys(fs, representatives, h, known=None, fill=True) -> list[tuple]:
    """The isomorphism key of each matrix of representatives, one per
    orbit, given the polytope's h-vector h: its socle functional, computed
    from the top degree alone and checked against h (known and fill go to
    iso_keys).  No quotient is built."""
    _bind("cohomology")
    return iso_keys(fs.n, h, top_functionals(fs, representatives, h), known, fill)


def _matrix_keys(fs, blocks, h, known=None, fill=True) -> list[tuple]:
    """The isomorphism key of each matrix of a list, in list order: one
    key per orbit (charmat.orbits), for its representative (_orbit_keys),
    which every member takes."""
    representatives = orbits(fs, blocks)
    distinct = list(dict.fromkeys(representatives))
    key = dict(zip(distinct, _orbit_keys(fs, [blocks[r] for r in distinct], h, known, fill)))
    return [key[r] for r in representatives]


def _class_keys(matrices, keys=_orbit_keys) -> dict:
    """keys(fs, matrices, h, known, fill) per member of matrices (weights
    -> (face structure, matrices)), each member keyed against its own
    h-vector h: report keys one matrix per orbit (_orbit_keys), iso every
    matrix of a list (_matrix_keys).  Members of one h-vector share one
    {phi: key} map, and each but the last of two or more members fills
    the GL(3, GF(2)) orbit of each of its key classes not yet in it.  The
    last only looks up: a phi missing from its map matches no earlier
    member's key, and its key is None, which equals no key.  Keys carry
    h, so a last member alone in its h-vector, whose keys are all None,
    equals no earlier key either way."""
    h = {w: h_vector(GaleDiagram(w)) for w in matrices}
    *_, last = matrices
    maps = {hw: {} for hw in h.values()}
    return {w: keys(fs, forms, h[w], maps[h[w]], w != last or len(matrices) == 1)
            for w, (fs, forms) in matrices.items()}


def _classes(diagram: GaleDiagram):
    """Face structure and {matrix: count} of a diagram, never listing its
    matrices: one entry per orbit (charmat.orbit_sizes) of its canonical
    tuples (charmat.canonical_charmats)."""
    fs = face_structure(diagram)
    return fs, orbit_sizes(fs, canonical_charmats(fs))


def classify(classes) -> dict:
    """The rigidity record of a Tor class, given each member's weights ->
    (face structure, {matrix: count}) in the class's order, where each
    matrix stands for count matrices of its key (_classes, under every
    report flag; report --verify checks the same counts): per member its
    matrix count, per pair of members the matrix pairs checked and the
    graded isomorphisms found (pairs with equal keys), and the verdict.
    A singleton class is B-rigid, hence C-rigid, by its matrix count
    alone, so matrices are keyed (_class_keys) only for two or more
    members.

    What the verdict means.  The integral cohomology of a quasitoric
    manifold is torsion-free, so an isomorphism of the integral cohomology
    rings of quasitoric manifolds over two members reduces mod 2 to one of
    their quotients: zero mod-2 cross isomorphisms imply zero integral
    ones, NOT-B-RIGID; C-RIGID-WITHIN-CLASS.  A mod-2 isomorphism found gives no
    integral one, so NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND decides
    nothing about C-rigidity.  The quotient of a mod-2 characteristic matrix
    is H*(small cover; Z/2) of the small cover it defines
    (Davis-Januszkiewicz, Duke Math. J. 62 (1991)), so for the small covers
    over a class the keys decide Z/2-cohomology isomorphism both ways.

    Every counted matrix [I_n | B] lifts by its 0/1 entries, so the verdict
    speaks of manifolds that exist: a vertex minor is, up to sign, the
    complementary 3 x 3 minor of the Gale dual [B; I_3], a (0,1)-matrix
    with |det| <= 2, and it is odd, its rows being a basis mod 2, so it is
    +-1.  Such matrices exist exactly for pentagons and heptagons
    (betti.supports_quasitoric).  On a heptagon the 7 labels take the 7
    nonzero forms, one each: there are exactly 2 matrices, whatever the
    weights, since GL(3, GF(2)) acts simply transitively on ordered bases
    and the trailing facets are fixed to x, y, z."""
    members = list(classes)
    counts = [sum(sizes.values()) for _, sizes in classes.values()]
    keys = []
    if len(members) > 1:
        member_keys = _class_keys({w: (fs, list(sizes)) for w, (fs, sizes) in classes.items()})
        for (_, sizes), member in zip(classes.values(), member_keys.values()):
            weighted = Counter()
            for key, size in zip(member, sizes.values()):
                weighted[key] += size
            keys.append(weighted)
    pairs = [{"left": list(members[i]), "right": list(members[j]),
              "checked": counts[i] * counts[j],
              "isomorphisms_found": sum(c * keys[j][key] for key, c in keys[i].items())}
             for i, j in combinations(range(len(members)), 2)]
    if len(members) == 1:
        verdict = "B-RIGID-WITHIN-FAMILY"
    elif any(p["isomorphisms_found"] for p in pairs):
        verdict = "NOT-B-RIGID; COHOMOLOGY-ISOMORPHISM-FOUND"
    else:
        verdict = "NOT-B-RIGID; C-RIGID-WITHIN-CLASS"
    return {"members": [{"weights": list(w), "charmat_count": c}
                        for w, c in zip(members, counts)],
            "pairs": pairs, "verdict": verdict}


def cmd_cohomology(args) -> int:
    # every selected matrix and its duality are checked here, before the
    # first byte is printed
    fs, h, selected = _selected_functionals(args)
    _bind("gf2")

    def record(block, phi) -> dict:
        r = {"block": row_strings(block), "n": fs.n, "hilbert": list(h),
             "generators": [format_poly(g) for g in generators(fs, block)]}
        if args.json:  # the ideal's rows only --json prints, I = Ann(phi)
            r["ideal"] = {str(d): [to_lists(d, row) for row in rows]
                          for d, rows in enumerate(annihilator_rows(phi, fs.n))}
        return r

    records = (record(block, phi) for _, block, phi in selected)
    if not args.json:
        print("\n".join(f"{' '.join(r['block'])}\n  hilbert: {r['hilbert']}\n"
                        f"  generators: {', '.join(r['generators'])}" for r in records))
        return 0
    # streamed one record at a time, in the bytes of _emit's
    # json.dumps(records, indent=2, sort_keys=True): a list's items sit two
    # spaces in, and no JSON string holds a raw newline
    import json

    opening = "[\n  "
    for r in records:
        sys.stdout.write(opening + json.dumps(r, indent=2, sort_keys=True).replace("\n", "\n  "))
        opening = ",\n  "
    print("[]" if opening == "[\n  " else "\n]")
    return 0


def cmd_profile(args) -> int:
    _, h, selected = _selected_functionals(args)
    profiles = [(i, invariant_profile(phi, h)) for i, _, phi in selected]
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
    # a diagram compared with itself is enumerated and keyed once
    keys = _class_keys({d.weights: _matrices(d) for d in dict.fromkeys((d1, d2))}, _matrix_keys)
    keys_1, keys_2 = keys[d1.weights], keys[d2.weights]
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
    members = []
    if diagram.k == 2:
        members = tor_class(diagram.weights)
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
    classes = {w: _classes(GaleDiagram(w)) for w in members}
    if args.cache:
        import json

        os.makedirs(args.cache, exist_ok=True)
        for w, (fs, _) in classes.items():
            blocks = [row_strings(b) for b in enumerate_charmats(fs)]
            record = {"weights": list(w), "blocks": blocks}
            path = os.path.join(args.cache, f"{'-'.join(map(str, w))}.charmats.json")
            with open(path, "w") as f:
                f.write(json.dumps(record, indent=2, sort_keys=True))
    report.update(tor_class=[list(w) for w in members], **classify(classes))
    pairs = report["pairs"]

    exit_code = 0
    if args.verify:
        found = sum(p["isomorphisms_found"] for p in pairs)
        report["verification"] = verify.run_verification(found, classes)
        if not report["verification"]["passed"]:
            exit_code = 1

    text = [
        f"input weights:     {report['input_weights']}",
        f"canonical form:    {report['canonical_weights']}",
        f"polygon:           2k+1 = {2 * diagram.k + 1} (k = {diagram.k}); "
        "supports quasitoric manifolds",
        f"Tor-class members: {len(members)}",
    ]
    for info in report["members"]:
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
    text.append(f"verdict: {report['verdict']}")
    _emit(report, args.json, "\n".join(text))
    return exit_code


# The grammar, written once: per command its handler, help, positionals
# (name, help) and long options (flag, kind, default, help), each stored
# under its flag without the dashes.  A bool option is a store_true flag;
# an int or str one takes one value, through that type.  build_parser and
# _direct_parse both read it.
_WEIGHTS = ("weights", "comma-separated weights, e.g. 3,1,2,1,1")
_JSON = ("--json", bool, False, "emit JSON")
_MATRIX = ("--matrix", int, None, "1-based matrix index (default: all)")
COMMANDS = {
    "betti": (cmd_betti, "bigraded Betti table of a diagram", (_WEIGHTS,), (_JSON,)),
    "torclass": (cmd_torclass, "pentagon weight vectors with the same Tor-algebra",
                 (_WEIGHTS,), (_JSON,)),
    "charmats": (cmd_charmats, "enumerate mod-2 characteristic matrices", (_WEIGHTS,), (_JSON,)),
    "cohomology": (cmd_cohomology, "cohomology quotient presentations",
                   (_WEIGHTS,), (_MATRIX, _JSON)),
    "profile": (cmd_profile, "codim/ord tables of the linear forms", (_WEIGHTS,), (_MATRIX, _JSON)),
    "iso": (cmd_iso, "pairwise graded-isomorphism matrix between two diagrams",
            (_WEIGHTS, ("weights2", "second diagram's weights")), (_JSON,)),
    "report": (cmd_report, "full rigidity report", (_WEIGHTS,),
               (("--cache", str, None, "cache directory"),
                ("--verify", bool, False, "diff all artifacts against the bundled tables"),
                _JSON)),
}


@lru_cache(maxsize=None)
def build_parser():
    """The argparse parser of COMMANDS, built once per process: each
    parse_args call fills a fresh namespace, so a caller that runs main
    many times (a sweep in one interpreter) shares it without one call's
    flags reaching the next.  main needs it only for the command lines
    that _direct_parse declines, so argparse is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="galerig",
        description="Rigidity computations for odd-gon Gale diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest, help_text in positionals:
            p.add_argument(dest, help=help_text)
        for flag, kind, default, help_text in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
            else:
                p.add_argument(flag, type=kind, default=default, help=help_text)
        p.set_defaults(fn=fn)
    return parser


def _direct_parse(argv):
    """The namespace build_parser().parse_args(argv) returns, without
    argparse, for a well-formed command line: a command name, then exactly
    its positionals and any of its long options, each spelled in full and
    given at most once, in any order, where no positional or option value
    starts with "-".  Any other argv (help, an abbreviated option,
    --opt=value, --, a repeated, unknown or missing argument, an invalid
    int) gives None, for argparse to parse or refuse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, positionals, options = COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {flag[2:]: default for flag, _, default, _ in options}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        kind = kinds.pop(token, None)  # popped: a second use is declined
        if kind is None:
            return None
        if kind is bool:
            values[token[2:]] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            values[token[2:]] = kind(value)
        except ValueError:
            return None
    if len(words) != len(positionals):
        return None
    values.update(zip((dest for dest, _ in positionals), words))
    return SimpleNamespace(command=argv[0], fn=fn, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _direct_parse(argv)
    if args is None:
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
