"""Spans and counters around galerig's public functions, kept in memory.

``Tracer.install`` replaces each function at the module attribute its
callers look up (``galerig.cli.enumerate_charmats`` and
``galerig.verify.enumerate_charmats`` both feed ``charmat.enumerate``), so
the program itself is not edited.  A span is ``[name, start, end, parent]``
with ``parent`` the index of the enclosing span of the same op, or -1.
Hot inner calls (1.4 M ``GradedSubspace.dimension`` calls per flagship op)
are counted only, because a span each would distort the layers around them.

``layer_metrics`` turns the recorded ops into per-op layer figures; it needs
no galerig import, so run.py can use it.
"""

from __future__ import annotations

import time
from collections import Counter

# (span name, module, attribute): every attribute through which galerig's
# own code reaches the function.
SPANNED = (
    ("gale.face_structure", "galerig.cli", "face_structure"),
    ("gale.face_structure", "galerig.verify", "face_structure"),
    ("petersen.tor_class", "galerig.cli", "tor_class"),
    ("charmat.enumerate", "galerig.cli", "enumerate_charmats"),
    ("charmat.enumerate", "galerig.verify", "enumerate_charmats"),
    ("charmat.is_characteristic", "galerig.cli", "is_characteristic"),
    ("charmat.is_characteristic", "galerig.cohomology", "is_characteristic"),
    ("cohomology.quotient", "galerig.cli", "quotient_presentation"),
    ("cohomology.quotient", "galerig.verify", "quotient_presentation"),
    ("cohomology.profile", "galerig.cli", "invariant_profile"),
    ("cohomology.profile", "galerig.verify", "invariant_profile"),
    ("cohomology.iso", "galerig.cohomology", "find_graded_iso"),
    ("verify.run", "galerig.verify", "run_verification"),
)

# (counter name, module, attribute) for calls that are counted only.
COUNTED = (
    ("cohomology.substitutions.tried", "galerig.cohomology", "substitution_maps_ideal"),
)

# Layers whose calls and inclusive seconds are reported as "<layer>.calls"
# and "<layer>.s".
TIMED_LAYERS = (
    "gale.face_structure",
    "petersen.tor_class",
    "charmat.enumerate",
    "charmat.is_characteristic",
    "cohomology.quotient",
    "cohomology.profile",
    "gf2.from_spans",
    "verify.run",
)


class Tracer:
    """Records the spans and counts of one op at a time."""

    def __init__(self):
        self.ops: list[dict] = []
        self._spans: list[list] = []
        self._stack = [-1]
        self._cells: dict[str, list[int]] = {}
        self._on_result = {}

    def install(self):
        import importlib

        from galerig.gf2 import GradedSubspace

        for name, module, attr in SPANNED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.spanned(name, getattr(mod, attr)))
        for name, module, attr in COUNTED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.counted(name, getattr(mod, attr)))
        # Wrapped on the class, where GradedQuotient and the search look them up.
        from_spans = GradedSubspace.__dict__["from_spans"].__func__
        GradedSubspace.from_spans = classmethod(self.spanned("gf2.from_spans", from_spans))
        GradedSubspace.dimension = self.counted("gf2.dimension.calls", GradedSubspace.dimension)
        GradedSubspace.reduce = self.counted("gf2.reduce.calls", GradedSubspace.reduce)

        matrices = self._cell("charmat.matrices")
        found = self._cell("cohomology.iso.found")

        def count_matrices(blocks):
            matrices[0] += len(blocks)

        def count_found(rows):
            if rows is not None:
                found[0] += 1

        self._on_result = {"charmat.enumerate": count_matrices, "cohomology.iso": count_found}

    def _cell(self, name: str) -> list[int]:
        return self._cells.setdefault(name, [0])

    def counted(self, name, fn):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name, fn):
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            spans, stack = self._spans, self._stack
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1]])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            hook = self._on_result.get(name)
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def run_op(self, label: str, fn, *args):
        """Call fn under a "cli.main" span and store the op's record."""
        self._spans, self._stack = [], [-1]
        for cell in self._cells.values():
            cell[0] = 0
        try:
            return self.spanned("cli.main", fn)(*args)
        finally:
            self.ops.append({
                "label": label,
                "spans": self._spans,
                "counts": {name: cell[0] for name, cell in self._cells.items()},
            })


def op_counts(op: dict) -> dict[str, int]:
    """Every count of one op that must repeat exactly: span calls per name
    plus the counters."""
    counts = Counter(span[0] for span in op["spans"])
    counts.update(op["counts"])
    return dict(sorted(counts.items()))


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-op means of the layer figures over the recorded ops.  Times are
    inclusive seconds per op, except cli.main.self_s, which is the main
    span minus the spans directly under it."""
    calls, seconds, counts = Counter(), Counter(), Counter()
    main_self = 0.0
    mains: dict[str, list[float]] = {"cold": [], "warm": []}
    for op in ops:
        spans = op["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            calls[name] += 1
            seconds[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            if name == "cli.main":
                main_self += end - start - inner
                if op["label"] in mains:
                    mains[op["label"]].append(end - start)
        counts.update(op["counts"])

    n = len(ops)
    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n
        out[f"{layer}.s"] = seconds[layer] / n
    pairs, found = calls["cohomology.iso"], counts["cohomology.iso.found"]
    tried = counts["cohomology.substitutions.tried"]
    out.update({
        "charmat.matrices": counts["charmat.matrices"] / n,
        "cohomology.iso.pairs": pairs / n,
        "cohomology.iso.found": found / n,
        "cohomology.iso.s": seconds["cohomology.iso"] / n,
        "cohomology.substitutions.tried": tried / n,
        "cohomology.substitutions.per_pair": tried / pairs if pairs else 0.0,
        "cohomology.iso.hit_ratio": found / tried if tried else 0.0,
        "gf2.dimension.calls": counts["gf2.dimension.calls"] / n,
        "gf2.reduce.calls": counts["gf2.reduce.calls"] / n,
        "cli.main.self_s": main_self / n,
    })
    for label, walls in mains.items():
        out[f"cli.report_{label}.s"] = sum(walls) / len(walls) if walls else 0.0
    return out
