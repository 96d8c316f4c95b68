"""The benchmark tracer wraps galerig functions by module attribute; every
name it wraps must still exist, and a command must call the wrapper."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from tracer import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, span, calls", [
    (["cohomology", "3,1,2,1,1"], "cohomology.quotient", 21),
    (["profile", "3,1,2,1,1"], "cohomology.profile", 21),
    (["report", "3,1,2,1,1"], "petersen.tor_class", 1),
])
def test_traced_call_spans_names_bound_on_first_use(tmp_path, argv, span, calls):
    """galerig.cli binds its cohomology and petersen names on first use,
    after the tracer has wrapped them, and keeps the wrappers: a traced
    call records one span per call of the wrapped name."""
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "perfbench/child.py", "call", "--trace", str(trace),
                           "--", *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (op,) = json.loads(trace.read_text())["ops"]
    assert Counter(s[0] for s in op["spans"])[span] == calls
