"""The scale rows: the pentagon family sweep at totals past the benchmark's,
and whole commands in fresh processes, written as one trajectory file.

Sweep rows.  For each total T, a fresh process sends every multi-member
pentagon Tor class of total T (canonical diagrams grouped by
galerig.cli.tor_class) through galerig.cli._classes, one orbit per entry,
and galerig.cli.classify, which keys the class.  It records the class,
matrix, orbit and cross-isomorphism ("found") counts, the sweep's wall
time, the time spent in each name that galerig.cli binds for a stage
(face_structure, canonical_charmats, orbit_sizes, top_functionals,
iso_keys; wrapped before first use, so every call goes through the
wrapper), and the process's peak RSS (ru_maxrss).  The process imports
nothing from tests/.

Fresh-command rows.  Each command runs REPEAT times as `python -m
galerig.cli ...`, stdout to /dev/null; the row is the median wall time
and the median peak RSS of the child, from wait4.

The counts are deterministic, so they are a guard: the script exits 1 if
any sweep row's counts differ from COUNTS, and it never gates on a time.
The file is BENCH_scale_<short sha>.json at the repository root (or
--out), with the commit, whether src/galerig differs from it, the Python
version, os.cpu_count(), whether the children write bytecode, whether
src/galerig/__pycache__ existed at the start, and the repeat count.
Times vary with the machine and its load: compare files only when they
were measured on one machine, in alternating runs.

Run from the repository root:
    python3 checks/scale_rows.py                          # totals 14, 17, 20, 21 and commands
    python3 checks/scale_rows.py --totals 14,17,20,21,24  # and total 24 (about 45 s more)
    python3 checks/scale_rows.py --totals 14,17 --no-commands --out /tmp/scale.json
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# total: (multi-member classes, matrices, orbits, cross isomorphisms found)
COUNTS = {
    14: (25, 19_196, 1_626, 0),
    17: (59, 213_347, 5_792, 0),
    20: (127, 2_307_464, 17_458, 0),
    21: (152, 4_840_406, 23_205, 0),
    24: (281, 48_163_817, 55_732, 0),
}
STAGES = ("face_structure", "canonical_charmats", "orbit_sizes", "top_functionals", "iso_keys")
REPEAT = 3  # fresh runs per command row
COMMANDS = (
    "report 3,1,2,1,1 --verify",
    "iso 10,1,1,1,1 10,1,1,1,1",
    "report 4,3,3,2,2",
    "profile 10,1,1,1,1",
    "cohomology 10,1,1,1,1",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sweep_row(total: int) -> dict:
    """The sweep row of one total, in this process (run it fresh)."""
    import galerig.cli as cli
    from galerig.gale import GaleDiagram, canonical_weights

    spent = dict.fromkeys(STAGES, 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
        return wrapper

    for name in STAGES:
        setattr(cli, name, timed(name, getattr(cli, name)))
    diagrams = sorted({canonical_weights(w) for w in _compositions(total, 5)})
    classes = sorted({c for c in map(cli.tor_class, diagrams) if len(c) > 1})
    matrices = orbits = found = 0
    start = time.perf_counter()
    for members in classes:
        grouped = {w: cli._classes(GaleDiagram(w), True) for w in members}
        record = cli.classify(grouped)
        orbits += sum(len(sizes) for _, sizes in grouped.values())
        matrices += sum(m["charmat_count"] for m in record["members"])
        found += sum(p["isomorphisms_found"] for p in record["pairs"])
    sweep_s = time.perf_counter() - start
    return {"total": total, "classes": len(classes), "matrices": matrices, "orbits": orbits,
            "found": found, "sweep_s": round(sweep_s, 3),
            "stage_s": {name: round(s, 3) for name, s in spent.items()},
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def _fresh_sweep_row(total: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--row", str(total)], env=_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def command_row(command: str) -> dict:
    """Median wall time and peak RSS of REPEAT fresh runs of a command."""
    times, rss = [], []
    for _ in range(REPEAT):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "galerig.cli", *command.split()],
                                 env=_env(), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        times.append(time.perf_counter() - start)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise SystemExit(f"{command} exited {child.returncode}")
        rss.append(usage.ru_maxrss / 1024)
    return {"command": command, "s": round(statistics.median(times), 4),
            "peak_rss_mb": round(statistics.median(rss), 1)}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--totals", default="14,17,20,21",
                        help="comma-separated sweep totals, each one of %s" % sorted(COUNTS))
    parser.add_argument("--no-commands", action="store_true", help="skip the command rows")
    parser.add_argument("--out", help="output file (default BENCH_scale_<short sha>.json)")
    parser.add_argument("--row", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.row is not None:
        print(json.dumps(sweep_row(args.row)))
        return 0
    totals = [int(t) for t in args.totals.split(",")]
    if not set(totals) <= set(COUNTS):
        parser.error(f"totals must be among {sorted(COUNTS)}")

    sha = _git("rev-parse", "--short", "HEAD")
    provenance = {
        "commit": _git("rev-parse", "HEAD"),
        "src_dirty": bool(_git("status", "--porcelain", "--", "src/galerig")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bytecode_written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pycache_at_start": (ROOT / "src" / "galerig" / "__pycache__").exists(),
        "command_repeat": REPEAT,
        "sweep_repeat": 1,
    }
    rows, failed = [], []
    for total in totals:
        row = _fresh_sweep_row(total)
        rows.append(row)
        got = tuple(row[k] for k in ("classes", "matrices", "orbits", "found"))
        print(f"total {total}: {got[0]} classes, {got[1]:,} matrices, {got[2]:,} orbits, "
              f"{got[3]} found; {row['sweep_s']} s, {row['peak_rss_mb']} MB")
        if got != COUNTS[total]:
            failed.append(f"total {total}: counts {got}, expected {COUNTS[total]}")
    commands = [] if args.no_commands else [command_row(c) for c in COMMANDS]
    for row in commands:
        print(f"{row['command']}: {row['s']} s, {row['peak_rss_mb']} MB")
    out = Path(args.out) if args.out else ROOT / f"BENCH_scale_{sha}.json"
    out.write_text(json.dumps({"provenance": provenance, "sweep": rows, "commands": commands},
                              indent=2) + "\n")
    print(f"wrote {out}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
