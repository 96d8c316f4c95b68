"""galerig benchmark: time to verdict on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An op is one user-visible computation: one ``galerig ...`` CLI call in a
fresh interpreter, or one verdict of the in-process sweep.  Ops run one at
a time with the default ``--jobs 1``.  Every op is checked against
``perfbench/expected.json``; an op fails if it exits with another code,
writes to stderr, gives another answer, prints other stdout than an earlier
repeat of the same op in the run, or exceeds its timeout.

A run repeats whole passes over the workload's inputs, in an order shuffled
by the seed, until ``--seconds`` would be exceeded (at least one pass), so
every seed measures the same set of ops.  Op times are scaled to a
reference CPU speed by ``Clock``.  With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` the run makes one untraced
and one traced phase of equal passes and reports the per-layer figures of
``tracer.layer_metrics``, per op, with the traced-minus-untraced wall time
as ``trace.overhead_s``.  Traced op counts are recorded under
``.perfbench_work/counts`` by source digest; a later traced run of the same
source whose counts differ fails.  The line before the last holds the
machine, the program's provenance and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics, op_counts

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_LAUNCHES = 7
PROBE_REPEATS = 5
PROBE_REF_S = 0.0085  # the probe's time on an idle 2.0 GHz Xeon core
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0  # the run must end within 180 s
CLI_ENTRY = "import sys; from galerig.cli import main; sys.exit(main())"

# How each workload runs its ops: one fresh interpreter per op ("cli"), or
# every op of a phase in one long-lived interpreter ("serve").
RUNNERS = {
    "flagship_verify": "cli",
    "pentagon_sweep": "serve",
    "singleton_cache": "cli",
    "self_iso": "cli",
}


@dataclass
class Op:
    key: str                  # key of the expected answer
    argv: list[str]           # galerig arguments
    label: str = ""           # "cold" or "warm" for cache ops
    cache: Path | None = None  # directory a cold call fills


@dataclass
class Outcome:
    op: Op
    wall_s: float
    cpu_s: float
    failure: str              # empty when the op is correct
    scale: float = 1.0        # Clock factor for the op's times
    trace: dict | None = None
    cache_bytes: int = 0      # bytes a cold call left in its cache directory


class Refused(Exception):
    """The run cannot measure the code of this checkout."""


# ---------------------------------------------------------------------------
# environment and provenance


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def guard_import(env) -> str:
    """Path of the galerig package children import; refuses any copy but
    this checkout's src/galerig."""
    proc = subprocess.run([sys.executable, "-c", "import galerig; print(galerig.__file__)"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    found = proc.stdout.strip()
    wanted = ROOT / "src" / "galerig" / "__init__.py"
    if proc.returncode != 0 or not found or Path(found).resolve() != wanted:
        raise Refused(f"galerig must import from {wanted}, got "
                      f"{found or proc.stderr.strip().splitlines()[-1:]}")
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_state() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"git_commit": None, "git_dirty": None}
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"git_commit": head.stdout.strip() or None,
            "git_dirty": bool(status.stdout.strip()) if status.returncode == 0 else None}


def machine_info(seed: int) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def setup_seconds(env, clock: "Clock") -> float:
    """Median time, scaled by the clock, for a fresh interpreter to import
    galerig.cli."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import galerig.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        wall = time.perf_counter() - start
        times.append(wall * clock.factor())
    return statistics.median(times)


# ---------------------------------------------------------------------------
# answers


MEMBER_LINE = re.compile(r"  \[([\d, ]+)\]: (\d+) characteristic matrices$")
PAIR_LINE = re.compile(r"  \[([\d, ]+)\] vs \[([\d, ]+)\]: (\d+) pairs checked, "
                       r"(\d+) graded isomorphisms$")
VERIFY_LINE = re.compile(r"verification: matrices ok=(\w+), ideal rows ok=(\w+), "
                         r"profile discrepancies=(\d+) \(all certified=(\w+)\), "
                         r"iso found=(\d+)$")
ISO_LINE = re.compile(r"(\d+) graded isomorphisms over (\d+)x(\d+) pairs$")


def _weights(text) -> str:
    return ",".join(str(int(w)) for w in (text.split(",") if isinstance(text, str) else text))


def parse_answer(argv: list[str], stdout: str) -> dict:
    """The facts an op's stdout states: verdict, matrix count per member,
    pairs checked and isomorphisms found (plus the verification summary)."""
    if argv[0] == "iso":
        lines = stdout.splitlines()
        head = ISO_LINE.match(lines[0]) if lines else None
        if head is None:
            raise ValueError("no isomorphism count line")
        found, rows, cols = map(int, head.groups())
        grid = lines[1:]
        if len(grid) != rows or any(len(r) != cols for r in grid) \
                or sum(r.count("X") for r in grid) != found:
            raise ValueError("isomorphism matrix does not match its count line")
        return {"sizes": [rows, cols], "pairs": rows * cols, "found": found}
    if "--json" in argv:
        data = json.loads(stdout)
        return {
            "verdict": data["verdict"],
            "members": {_weights(m["weights"]): m["charmat_count"] for m in data["members"]},
            "pairs": [[_weights(p["left"]), _weights(p["right"]), p["checked"],
                       p["isomorphisms_found"]] for p in data["pairs"]],
        }
    answer = {"verdict": None, "members": {}, "pairs": []}
    for line in stdout.splitlines():
        if m := MEMBER_LINE.match(line):
            answer["members"][_weights(m[1])] = int(m[2])
        elif m := PAIR_LINE.match(line):
            answer["pairs"].append([_weights(m[1]), _weights(m[2]), int(m[3]), int(m[4])])
        elif m := VERIFY_LINE.match(line):
            answer["verification"] = {
                "matrices_ok": m[1] == "True", "ideal_rows_ok": m[2] == "True",
                "profile_discrepancies": int(m[3]), "all_certified": m[4] == "True",
                "iso_found": int(m[5]),
            }
        elif line.startswith("verdict: "):
            answer["verdict"] = line[len("verdict: "):]
    return answer


class Checker:
    """Compares each op with its expected answer and with earlier repeats."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.stdout_seen: dict[str, str] = {}

    def failure(self, op: Op, rc, stdout: str, stderr: str) -> str:
        want = self.expected[op.key]
        if rc != want["exit"]:
            return f"exit code {rc}, expected {want['exit']}"
        if stderr:
            return f"stderr: {stderr.strip()[:200]}"
        try:
            answer = parse_answer(op.argv, stdout)
        except (ValueError, KeyError, IndexError) as err:
            return f"unparseable output: {err}"
        if answer != want["answer"]:
            return f"answer {answer} differs from the expected {want['answer']}"
        first = self.stdout_seen.setdefault(op.key, stdout)
        if stdout != first:
            return "stdout differs from an earlier repeat of the same op"
        return ""


# ---------------------------------------------------------------------------
# workloads


def make_pass(workload: str, spec: dict, rng: random.Random, work: Path, index: int) -> list[Op]:
    keys = list(spec["ops"])
    rng.shuffle(keys)
    if workload != "singleton_cache":
        return [Op(key, key.split()) for key in keys]
    ops = []
    for i, key in enumerate(keys):
        # A fresh cache directory per pick: the cold call computes and
        # writes it, two warm calls read and validate it.  Two warm calls
        # put the median op in the warm mode, not in the gap between the
        # warm and the cold mode, where it would swing from run to run.
        cache = work / f"cache-{index}-{i}"
        argv = key.split() + [str(cache)]
        ops += [Op(key, argv, "cold", cache), Op(key, argv, "warm"), Op(key, argv, "warm")]
    return ops


class Clock:
    """Scales measured times to a CPU on which the probe takes PROBE_REF_S.

    On a shared machine the CPU this run gets slows down by up to 2x for
    stretches of 10-30 s while neighbours load it, and the slowdown inflates
    wall and CPU time alike, so medians of raw times drift by tens of
    percent between runs.  The probe is fixed pure-Python work in the style
    of galerig's inner loops.  Sampling it between ops, on the same CPU (the
    run is pinned to one), and multiplying an op's times by PROBE_REF_S over
    the mean of the samples before and after it cancels most of the drift.
    """

    def __init__(self):
        self.last = self._sample()

    @staticmethod
    def _sample() -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _probe()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def factor(self) -> float:
        """Scale factor for the interval since the previous call."""
        now = self._sample()
        scale = 2 * PROBE_REF_S / (self.last + now)
        self.last = now
        return scale


def _pair(a: int, b: int) -> tuple[int, int]:
    return a ^ b, a & b


def _probe() -> int:
    acc, seen, sets = 0, {}, []
    for i in range(6000):
        x, y = _pair(i, acc)
        acc = (acc + x) & 0xFFFFF
        key = (i & 255, y & 15)
        seen[key] = seen.get(key, 0) + 1
        sets.append(frozenset((x & 7, y & 7)))
        rest = i
        while rest:
            low = rest & -rest
            acc ^= low
            rest ^= low
    return acc


class Harness:
    """Runs the ops of one benchmark run and keeps its budget."""

    def __init__(self, workload: str, env, checker: Checker, work: Path, started: float):
        self.workload = workload
        self.env = env
        self.checker = checker
        self.work = work
        self.deadline = started + RUN_DEADLINE_S
        self.timed_out = False
        self.clock = Clock()
        self.server: Server | None = None
        self._traces = 0

    def _timeout(self) -> float:
        return max(min(OP_TIMEOUT_S, self.deadline - time.monotonic()), 0.0)

    def _trace_file(self) -> Path:
        self._traces += 1
        return self.work / f"trace-{self._traces}.json"

    def run_cli(self, op: Op, traced: bool) -> Outcome:
        trace_file = self._trace_file() if traced else None
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "call", "--trace",
                   str(trace_file), "--label", op.label, "--", *op.argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *op.argv]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=self._timeout())
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return Outcome(op, time.perf_counter() - start, 0.0, "timed out")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        outcome = Outcome(op, wall, cpu, self.checker.failure(op, proc.returncode, stdout, stderr),
                          scale=self.clock.factor())
        if traced and not outcome.failure:
            outcome.trace = json.loads(trace_file.read_text())["ops"][0]
        if op.label == "cold" and not outcome.failure:
            outcome.cache_bytes = sum(f.stat().st_size for f in op.cache.iterdir())
        return outcome

    def run_pass(self, ops: list[Op], traced: bool) -> list[Outcome]:
        serving = RUNNERS[self.workload] == "serve"
        if serving and self.server is None:
            self.server = Server(self, traced)
        outcomes = []
        for op in ops:
            outcomes.append(self.server.run(op) if serving else self.run_cli(op, traced))
            if self.timed_out or (serving and self.server.broken):
                break
        return outcomes

    def end_phase(self):
        if self.server is not None:
            self.server.close()
            self.server = None


class Server:
    """One serving child for every op of a phase, so that verdicts after the
    first find galerig's in-process caches warm, as in a long sweep."""

    def __init__(self, harness: Harness, traced: bool):
        self.harness = harness
        self.trace_file = harness._trace_file() if traced else None
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "serve"]
        if traced:
            cmd += ["--trace", str(self.trace_file)]
        self.stderr = open(harness.work / "serve.stderr", "a")
        self.proc = subprocess.Popen(cmd, env=harness.env, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr)
        self.reader = LineReader(self.proc.stdout.fileno())
        self.served: list[Outcome] = []
        self.broken = False

    def run(self, op: Op) -> Outcome:
        harness = self.harness
        try:
            self.proc.stdin.write(json.dumps({"argv": op.argv, "label": op.label}).encode()
                                  + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            line = b""
        else:
            line = self.reader.readline(harness._timeout())
        if not line:
            self.broken = True
            if line is None:
                harness.timed_out = True
                return Outcome(op, OP_TIMEOUT_S, 0.0, "timed out")
            return Outcome(op, 0.0, 0.0, "the serving process ended early")
        reply = json.loads(line)
        failure = harness.checker.failure(op, reply["rc"], reply["stdout"], reply["stderr"])
        outcome = Outcome(op, reply["wall_s"], reply["cpu_s"], failure,
                          scale=harness.clock.factor())
        self.served.append(outcome)
        return outcome

    def close(self):
        """Stops the child; a child that ends cleanly leaves the trace of
        the ops it served."""
        try:
            if not self.broken:
                self.proc.stdin.close()
                self.proc.wait(timeout=max(self.harness._timeout(), 1.0))
        except (OSError, subprocess.TimeoutExpired):
            self.broken = True
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout, self.stderr):
                try:
                    pipe.close()
                except OSError:
                    pass
        if self.trace_file is not None and self.proc.returncode == 0:
            records = json.loads(self.trace_file.read_text())["ops"]
            for outcome, record in zip(self.served, records):
                outcome.trace = record


class LineReader:
    """Reads lines from a pipe with a timeout per line."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buffer = b""

    def readline(self, timeout: float) -> bytes | None:
        """A line without its newline, b"" at end of file, None on timeout."""
        end = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            remaining = end - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    return b""
                self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line


@dataclass
class Phase:
    outcomes: list[Outcome]
    passes: int
    peak_rss_mb: float

    def scaled_walls(self) -> list[float]:
        return [o.wall_s * o.scale for o in self.outcomes]


def run_phase(harness: Harness, passes, traced: bool, seconds: float | None = None,
              count: int | None = None) -> Phase:
    """Whole passes until another would overrun ``seconds``, or exactly
    ``count`` passes."""
    start = time.perf_counter()
    outcomes, done = [], 0
    while not harness.timed_out:
        elapsed = time.perf_counter() - start
        if count is not None and done >= count:
            break
        if count is None and done and elapsed + elapsed / done > seconds:
            break
        outcomes += harness.run_pass(next(passes), traced)
        done += 1
        if any(o.failure for o in outcomes):
            break
    harness.end_phase()
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return Phase(outcomes, done, peak)


def tail(walls: list[float]) -> dict:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(walls)
    best = None
    for pct in (50, 90, 99, 99.9):
        value = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
        if sum(1 for w in ordered if w > value) >= 10:
            best = {"percentile": pct, "value": value, "samples": len(ordered)}
    return best or {"omitted": f"too few ops ({len(ordered)}) for ten beyond a percentile"}


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, dict]:
    outcomes = phase.outcomes
    walls = phase.scaled_walls()
    correct = sum(1 for o in outcomes if not o.failure)
    metrics = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(walls),
        "ops_per_s": correct / sum(walls),
        "cpu_s_per_op": sum(o.cpu_s * o.scale for o in outcomes) / len(outcomes),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    raw = [o.wall_s for o in outcomes]
    scales = sorted(o.scale for o in outcomes)
    details = {
        "op_s.tail": tail(walls),
        "unscaled": {"op_s.p50": statistics.median(raw), "ops_per_s": correct / sum(raw),
                     "cpu_s_per_op": sum(o.cpu_s for o in outcomes) / len(outcomes)},
        "scale": {"min": scales[0], "median": statistics.median(scales), "max": scales[-1]},
        "per_op": [[o.op.key, o.op.label, round(o.wall_s, 4), round(o.cpu_s, 4), round(o.scale, 4)]
                   for o in outcomes],
    }
    return metrics, details


class CountLedger:
    """Traced op counts by op, kept across runs of the same source."""

    def __init__(self, workload: str, digest: str):
        self.path = WORK_DIR / "counts" / f"{workload}-{digest[:16]}.json"
        self.counts = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, outcome: Outcome):
        key = f"{outcome.op.key}|{outcome.op.label}"
        counts = op_counts(outcome.trace)
        first = self.counts.setdefault(key, counts)
        if counts != first:
            diff = sorted(k for k in set(counts) | set(first) if counts.get(k) != first.get(k))
            outcome.failure = f"traced counts differ from an earlier traced run: {diff}"

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.counts, indent=1, sort_keys=True))


def traced_metrics(harness: Harness, passes, seconds: float, ledger: CountLedger):
    plain = run_phase(harness, passes, traced=False, seconds=seconds / 2)
    if harness.timed_out or any(o.failure for o in plain.outcomes):
        return plain.outcomes, {}
    traced = run_phase(harness, passes, traced=True, count=plain.passes)
    outcomes = plain.outcomes + traced.outcomes
    records = []
    for outcome in traced.outcomes:
        if outcome.trace is None:
            if not outcome.failure:
                outcome.failure = "no trace recorded"
            continue
        ledger.check(outcome)
        records.append(outcome.trace)
    if any(o.failure for o in outcomes):
        return outcomes, {}
    ledger.save()
    metrics = layer_metrics(records)
    metrics["trace.overhead_s"] = (sum(traced.scaled_walls()) - sum(plain.scaled_walls())) \
        / len(traced.outcomes)
    cold = [o.cache_bytes for o in traced.outcomes if o.op.label == "cold"]
    metrics["cli.cache_bytes"] = sum(cold) / len(cold) if cold else 0.0
    return outcomes, metrics


# ---------------------------------------------------------------------------


def measure(args) -> tuple[dict, dict]:
    started = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    if args.workload not in RUNNERS:
        raise Refused(f"unknown workload {args.workload!r}; choose from {sorted(RUNNERS)}")
    env = child_env()
    digest = source_digest()
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "program": {"galerig_file": guard_import(env), "src_sha256": digest, **git_state()},
    }
    spec = expected["workloads"][args.workload]
    checker = Checker(spec["ops"])
    # One CPU for this process and every child, so the clock's probe runs
    # where the ops run.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    info["machine"]["pinned_cpu"] = cpu
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    harness = None
    try:
        rng = random.Random(args.seed)
        passes = (make_pass(args.workload, spec, rng, work, i) for i in itertools.count())
        harness = Harness(args.workload, env, checker, work, started)
        if args.trace:
            outcomes, values = traced_metrics(harness, passes, args.seconds,
                                              CountLedger(args.workload, digest))
            section = "per_layer"
            details = {}
        else:
            phase = run_phase(harness, passes, traced=False, seconds=args.seconds)
            outcomes = phase.outcomes
            values, details = ({}, {}) if any(o.failure for o in outcomes) else \
                end_to_end(phase, setup_seconds(env, harness.clock))
            details["passes"] = phase.passes
            section = "end_to_end"
    finally:
        if harness is not None:
            harness.end_phase()
        shutil.rmtree(work, ignore_errors=True)

    failures = [f"{' '.join(filter(None, (o.op.key, o.op.label)))}: {o.failure}"
                for o in outcomes if o.failure]
    info.update(details)
    info["ops"] = len(outcomes)
    info["fail_ratio"] = len(failures) / len(outcomes) if outcomes else 1.0
    info["failures"] = failures[:5]
    correct = bool(outcomes) and not failures
    result = {
        "correct": correct,
        "attempted": max(len(outcomes), 1),
        "failed": len(failures) if outcomes else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench[section]} if correct else {},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = measure(args)
    except Refused as err:
        print(f"refusing to run: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"run": info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
