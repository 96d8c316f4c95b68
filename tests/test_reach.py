"""Every function in src/galerig runs for some command.

A fresh interpreter runs the CLI commands below, in-process through
galerig.cli.main, under sys.settrace, and reports the code object of every
frame it entered.  The interpreter must be fresh: lru_caches that other
tests have warmed would skip the bodies of the functions they wrap.  Each
function that no command runs is named in NOT_RUN with the reason it
stays; any other one is test-only code, which belongs in tests/oracles.py,
or dead code.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "galerig"

# (argv, exit code): every subcommand in text and JSON, --matrix, report
# --verify and --cache, a heptagon, a cross iso, a command line for argparse
# and three refusals, all in one process.  CACHE stands for a fresh directory.
COMMANDS = [
    (["betti", "3,1,2,1,1"], 0),
    (["betti", "3,1,2,1,1", "--json"], 0),
    # an abbreviated option, which main leaves to the argparse parser
    (["betti", "3,1,2,1,1", "--js"], 0),
    (["torclass", "3,1,2,1,1"], 0),
    (["torclass", "3,1,2,1,1", "--json"], 0),
    (["charmats", "2,2,2,1,1"], 0),
    (["charmats", "2,2,1,1,1,1,1", "--json"], 0),
    (["cohomology", "3,1,2,1,1"], 0),
    (["cohomology", "2,2,2,1,1", "--json", "--matrix", "3"], 0),
    (["profile", "3,1,2,1,1", "--matrix", "2"], 0),
    (["profile", "2,2,1,1,1,1,1", "--json"], 0),
    (["iso", "3,1,2,1,1", "2,2,2,1,1"], 0),
    (["iso", "2,2,2,2,2", "2,2,2,2,2", "--json"], 0),
    (["report", "3,1,2,1,1", "--verify"], 0),
    (["report", "3,1,2,1,1", "--verify", "--json"], 0),
    # the orbit fills of n = 5 so far pass monomial_count(5) = 21, so these
    # two build the stacked orbit table of n = 5 and read it
    (["report", "3,1,2,1,1"], 0),
    (["iso", "4,1,1,1,1", "4,1,1,1,1"], 0),
    (["report", "4,4,1,1,1", "--cache", "CACHE"], 0),
    (["report", "2,2,1,1,1,1,1", "--json"], 0),
    # a 9-gon supports no quasitoric manifold
    (["report", "1,1,1,1,1,1,1,1,1"], 2),
    (["charmats", "11,1,1,1,1"], 2),
    (["report", "2,2,2,2,1", "--verify"], 2),
]

# Functions that no command runs, each with the reason it stays in src.
NOT_RUN = {
    # wrapped by perfbench/tracer.py, which the benchmark pins
    "galerig.cohomology.find_graded_iso",
    "galerig.cohomology.substitution_maps_ideal",
    # wrapped by perfbench/tracer.py too, where galerig.cli and
    # galerig.verify bind it, and with its check the tests' saturated path
    # (oracles.verification_by_quotients); report --verify reads the
    # published blocks off their top functionals instead
    "galerig.cohomology.quotient_presentation",
    "galerig.cohomology._validate_quotient",
    # find_graded_iso, wrapped by perfbench/tracer.py, reads its socle
    # functionals through it
    "galerig.cohomology.quotient_functional",
    # wrapped by perfbench/tracer.py too, and the tests' way to build a
    # GradedSubspace from spanning vectors; _saturated_ideal stores the rows
    # it has already reduced
    "galerig.gf2.GradedSubspace.from_spans",
    # the slot of more than 64 bits, read off byte windows, met at n >= 10
    # only after monomial_count(n) fills of one n in a process; checked by
    # tests/test_cohomology.py::test_stacked_orbit_table_is_built_once_after_w_chained_fills
    # at n = 10 and by checks/test_orbit_table_wide.py
    "galerig.cohomology._orbit_table.read[from_bytes, mask, slot, windows]",
    # the Python data model: the refusals and repr of an immutable diagram
    "galerig.gale.GaleDiagram.__setattr__",
    "galerig.gale.GaleDiagram.__delattr__",
    "galerig.gale.GaleDiagram.__repr__",
}

_RUNNER = """
import contextlib, io, json, sys

entered = set()


def trace(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.settrace(trace)
from galerig.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _functions():
    """{(file, first line, code name): dotted name} of every function
    defined in the package, nested ones under their enclosing names.  A
    name defined twice in one scope gets the free variables of each
    definition appended."""
    found = []

    def walk(code, path, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found.append(((str(path), const.co_firstlineno, const.co_name), name,
                                  const.co_freevars))
                walk(const, path, name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        module = "galerig" if path.stem == "__init__" else f"galerig.{path.stem}"
        walk(compile(path.read_text(), str(path), "exec"), path, module + ".")
    counts = {}
    for _, name, _ in found:
        counts[name] = counts.get(name, 0) + 1
    return {key: name if counts[name] == 1 else f"{name}[{', '.join(free)}]"
            for key, name, free in found}


def test_every_function_runs_for_a_command(tmp_path):
    argvs = [[str(tmp_path / "cache") if a == "CACHE" else a for a in argv]
             for argv, _ in COMMANDS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in COMMANDS]
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in result["entered"]}
    not_run = {name for key, name in _functions().items() if key not in entered}
    assert not_run == NOT_RUN
