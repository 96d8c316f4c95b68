"""Byte-identical CLI output.

Each file in tests/golden/ is the stdout of one command, named after its
arguments ("report_3-1-2-1-1_verify_json.txt" is
``galerig report 3,1,2,1,1 --verify --json``).  A file is recorded once and
never edited to follow a change of the code: the ``charmats``, ``cohomology``,
``profile``, ``iso`` and pentagon ``report`` files predate per-facet forms
(the only edit since is the dropped, always-empty ``reductions`` list of
``report --verify --json``), and the ``betti`` and heptagon ``report`` files
predate the plain-dict Betti tables and codim/ord profiles.  The
``report_2-2-2-2-1_json``, ``report_3-2-1-1-2_json`` and
``iso_4-1-1-1-1_4-1-1-1-1`` files were recorded while every isomorphism
key still came from a saturated quotient per facet-symmetry orbit, to pin
the keyed verdict path on two more Tor classes and on a grid with 1025
isomorphisms before the keys were taken from the top degree alone.  The
``report_4-3-3-2-2_json`` (6 members of 147 matrices, 15 pairs) and
``profile_4-3-3-2-2`` (n = 11) files were recorded before the row,
catalecticant, contraction and substitution tables were rebuilt on
``gf2.product_index``, to pin every one of them at the largest accepted
facet count, m = 14.
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
