"""Child processes of the benchmark.

``call [--trace FILE] [--label L] -- ARGV...`` runs one galerig CLI call like
the installed ``galerig`` script would, optionally traced, and writes the
trace to FILE at exit.

``serve [--trace FILE]`` is one long-lived interpreter: it reads ops as JSON
lines ``{"argv": [...], "label": "..."}`` from stdin, calls
``galerig.cli.main`` for each with stdout and stderr captured, and answers
each with a JSON line ``{"rc", "stdout", "stderr", "wall_s", "cpu_s"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

from galerig.cli import main

from tracer import Tracer


def _serve(tracer: Tracer | None):
    while line := sys.stdin.readline():
        op = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(op["argv"])
            else:
                rc = tracer.run_op(op["label"], main, op["argv"])
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        print(json.dumps({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                          "wall_s": wall, "cpu_s": cpu}), flush=True)
    return 0


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("call", "serve"))
    parser.add_argument("--trace", help="write the spans and counts to this file at exit")
    parser.add_argument("--label", default="", help="label stored with a traced call")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    galerig_argv = argv[split + 1:]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        if args.mode == "serve":
            return _serve(tracer)
        if tracer is None:
            return main(galerig_argv)
        return tracer.run_op(args.label, main, galerig_argv)
    finally:
        if tracer is not None:
            with open(args.trace, "w") as fh:
                json.dump({"ops": tracer.ops}, fh)


if __name__ == "__main__":
    sys.exit(run())
