"""Wide check that report does not depend on the history of the per-process
I_n row table (galerig.cohomology._nonface_rows).  Every multi-member
pentagon Tor class of total <= 12 (26 classes) prints the same
`galerig report W --json` bytes when the classes run in one process in
sorted order, in reversed order, and with the row table cleared before
each call.  Too many diagrams for tier-1, so this sits outside tier-1's
testpaths.

Runtime: about 3 s on a 2-core x86 VM under Python 3.11, pytest's
start-up included.

Run from the repository root:  python3 -m pytest checks/test_row_table_wide.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.betti import betti_group  # noqa: E402
from galerig.cli import main  # noqa: E402
from galerig.cohomology import _nonface_rows  # noqa: E402

CLASSES = sorted({members for members in map(betti_group, oracles.canonical_diagrams(5, 12))
                  if len(members) > 1})


def _reports(classes, capsys, clear=False) -> dict:
    out = {}
    for members in classes:
        if clear:
            _nonface_rows.cache_clear()
        assert main(["report", ",".join(map(str, members[0])), "--json"]) == 0
        out[members] = capsys.readouterr().out
    return out


def test_reports_do_not_depend_on_the_row_table(capsys):
    assert len(CLASSES) == 26
    _nonface_rows.cache_clear()
    forward = _reports(CLASSES, capsys)
    filled = _nonface_rows.cache_info().currsize
    # a second pass in the other order builds nothing
    assert _reports(CLASSES[::-1], capsys) == forward
    assert _nonface_rows.cache_info().currsize == filled
    _nonface_rows.cache_clear()
    assert _reports(CLASSES[::-1], capsys) == forward
    assert _reports(CLASSES, capsys, clear=True) == forward
