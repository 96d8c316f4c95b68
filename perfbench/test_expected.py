"""Checks on perfbench/expected.json that do not trust the run that
recorded it: each op list follows its selection rule, every matrix count
agrees with the brute-force oracle of the test suite, every pairs-checked
value is the product of the member counts, and the flagship entry states
the paper's values.

Run from the repository root:  python3 -m pytest perfbench/test_expected.py
"""

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.gale import GaleDiagram, canonical_weights, face_structure  # noqa: E402
from galerig.petersen import tor_class  # noqa: E402

WORKLOADS = json.loads((ROOT / "perfbench" / "expected.json").read_text())["workloads"]


def _canonical(total: int) -> set[tuple[int, ...]]:
    return {canonical_weights(w) for w in itertools.product(range(1, total), repeat=5)
            if sum(w) == total}


def _text(weights) -> str:
    return ",".join(map(str, weights))


def _answers():
    for workload in WORKLOADS.values():
        for key, op in workload["ops"].items():
            yield key, op["answer"]


def test_op_lists_follow_their_selection_rules():
    classes = {tor_class(w) for total in range(5, 10) for w in _canonical(total)}
    singletons = {tor_class(w) for w in _canonical(11)}
    assert set(WORKLOADS["flagship_verify"]["ops"]) == {"report 3,1,2,1,1 --verify"}
    assert set(WORKLOADS["pentagon_sweep"]["ops"]) == \
        {f"report {_text(c[0])} --json" for c in classes if len(c) > 1}
    assert set(WORKLOADS["singleton_cache"]["ops"]) == \
        {f"report {_text(c[0])} --cache" for c in singletons if len(c) == 1}
    assert set(WORKLOADS["self_iso"]["ops"]) == \
        {f"iso {_text(w)} {_text(w)}" for w in _canonical(8)}


def test_flagship_states_the_paper_values():
    op = WORKLOADS["flagship_verify"]["ops"]["report 3,1,2,1,1 --verify"]
    answer = op["answer"]
    assert op["exit"] == 0
    assert answer["members"] == {"3,1,2,1,1": 21, "2,2,2,1,1": 21}
    assert answer["pairs"] == [["2,2,2,1,1", "3,1,2,1,1", 441, 0]]
    assert answer["verdict"] == "NOT-B-RIGID; C-RIGID-WITHIN-CLASS"
    verification = answer["verification"]
    assert verification["matrices_ok"] and verification["ideal_rows_ok"]
    assert verification["all_certified"] and verification["iso_found"] == 0


def test_pair_counts_are_products_of_member_counts():
    for key, answer in _answers():
        if "sizes" in answer:
            rows, cols = answer["sizes"]
            assert answer["pairs"] == rows * cols, key
            assert answer["found"] >= rows, key  # every quotient maps to itself
        else:
            members = answer["members"]
            for left, right, checked, _ in answer["pairs"]:
                assert checked == members[left] * members[right], key


def test_matrix_counts_match_the_brute_force_oracle():
    counts: dict[str, int] = {}
    for key, answer in _answers():
        if "sizes" in answer:
            stated = dict(zip(key.split()[1:], answer["sizes"]))
        else:
            stated = answer["members"]
        for weights, count in stated.items():
            assert counts.setdefault(weights, count) == count, weights
    for weights, count in sorted(counts.items()):
        fs = face_structure(GaleDiagram(tuple(int(w) for w in weights.split(","))))
        assert len(oracles.brute_force_charmats(fs)) == count, weights
