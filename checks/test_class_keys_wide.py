"""Wide check of how report keys a whole Tor class.  For every multi-member
pentagon Tor class of total <= 12 (26 classes, 5,167 matrices), the pair
counts that `galerig report W --json` prints, where the members share one
{phi: key} map and the last member fills no GL(3, GF(2)) orbit, equal the
counts from each member's own galerig.cli._matrix_keys with no shared map,
and the report counts exactly the orbit fills of its members but the last.
Both report and iso key through galerig.cli._class_keys, so for every pair
the count line of `galerig iso LEFT RIGHT` equals the report's
isomorphisms_found, and its rows x columns equal the report's checked.
The last diagram fills no orbit whatever its h-vector: iso of each
class's first member with the heptagon [1,1,1,1,1,1,1], another n and h,
in either order, fills exactly the first diagram's key classes and finds
no isomorphism.
Too many diagrams for tier-1, so this sits outside tier-1's testpaths.

Runtime: about 1.6 s on a 2-core x86 VM under Python 3.11, pytest's
start-up included.

Run from the repository root:  python3 -m pytest checks/test_class_keys_wide.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import galerig.cohomology  # noqa: E402
from galerig.betti import betti_group, h_vector  # noqa: E402
from galerig.cli import _matrices, _matrix_keys, main  # noqa: E402
from galerig.gale import GaleDiagram  # noqa: E402

CLASSES = sorted({members for members in map(betti_group, oracles.canonical_diagrams(5, 12))
                  if len(members) > 1})


def test_range():
    assert len(CLASSES) == 26
    assert sum(len(_matrices(GaleDiagram(w))[1]) for members in CLASSES for w in members) == 5167


@pytest.mark.parametrize("members", CLASSES, ids=lambda c: " ".join(",".join(map(str, w))
                                                                     for w in c))
def test_shared_class_keys_give_the_unshared_pair_counts(members, capsys, monkeypatch):
    keys, fills = [], []
    for w in members:
        diagram = GaleDiagram(w)
        fs, blocks = _matrices(diagram)
        keys.append(Counter(_matrix_keys(fs, blocks, h_vector(diagram))))
        fills.append(len(keys[-1]))  # the member's key classes
    expected = [sum(count * keys[j][key] for key, count in keys[i].items())
                for i in range(len(members)) for j in range(i + 1, len(members))]

    orbit = galerig.cohomology._orbit
    calls = []
    monkeypatch.setattr(galerig.cohomology, "_orbit", lambda *a: calls.append(a) or orbit(*a))
    assert main(["report", ",".join(map(str, members[0])), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tor_class"] == [list(w) for w in members]
    assert [p["isomorphisms_found"] for p in report["pairs"]] == expected
    # no cross isomorphism through total 12, so no earlier member's class is
    # found again and each member but the last fills each of its classes
    assert sum(expected) == 0
    assert len(calls) == sum(fills[:-1])
    # iso of each pair, keyed through the same _class_keys, prints the
    # report's count over the report's checked pairs
    for pair in report["pairs"]:
        assert main(["iso", *(",".join(map(str, pair[side])) for side in ("left", "right"))]) == 0
        count, _, _, _, grid, _ = capsys.readouterr().out.splitlines()[0].split()
        rows, columns = map(int, grid.split("x"))
        assert int(count) == pair["isomorphisms_found"]
        assert pair["checked"] == rows * columns


HEPTAGON = (1, 1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("members", CLASSES, ids=lambda c: ",".join(map(str, c[0])))
def test_a_last_diagram_of_another_h_vector_only_looks_up(members, capsys, monkeypatch):
    orbit = galerig.cohomology._orbit
    calls = []
    monkeypatch.setattr(galerig.cohomology, "_orbit", lambda *a: calls.append(a) or orbit(*a))
    for first, last in ((members[0], HEPTAGON), (HEPTAGON, members[0])):
        assert h_vector(GaleDiagram(first)) != h_vector(GaleDiagram(last))
        fs, blocks = _matrices(GaleDiagram(first))
        classes = len(set(_matrix_keys(fs, blocks, h_vector(GaleDiagram(first)))))
        calls.clear()
        assert main(["iso", ",".join(map(str, first)), ",".join(map(str, last))]) == 0
        assert capsys.readouterr().out.startswith("0 graded isomorphisms over ")
        assert len(calls) == classes, (first, last)
