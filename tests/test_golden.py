"""Byte-identical CLI output.

Each file in tests/golden/ is the stdout of one command, named after its
arguments ("report_3-1-2-1-1_verify_json.txt" is
``galerig report 3,1,2,1,1 --verify --json``).  A file is recorded once and
never edited to follow a change of the code: the ``charmats``, ``cohomology``,
``profile``, ``iso`` and pentagon ``report`` files predate per-facet forms
(the only edit since is the dropped, always-empty ``reductions`` list of
``report --verify --json``), and the ``betti`` and heptagon ``report`` files
predate the plain-dict Betti tables and codim/ord profiles.
"""

from pathlib import Path

import pytest

from galerig.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _argv(name: str) -> list[str]:
    argv = []
    for part in name.removesuffix(".txt").split("_"):
        if part in ("json", "verify"):
            argv.append(f"--{part}")
        else:
            argv.append(part.replace("-", ","))
    return argv


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.txt")))
def test_output_matches_golden(name, capsys):
    assert main(_argv(name)) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
