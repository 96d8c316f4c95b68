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
facet count, m = 14.  The ``iso_2-2-2-2-2_2-2-2-2-2`` file (35 matrices
in 20 same-label orbits) was recorded while the keys were still taken
once per same-label orbit, to pin the rotations and reflections of the
polygon that now join those orbits into 3.  The three ``torclass`` files
were recorded while the Tor class was still read off the Petersen
graph's 5-cycles, to pin the window-sum solve that replaced it.  The
``iso_3-1-2-1-1_2-2-1-1-1-1-1`` file (a pentagon of n = 5 against a
heptagon of n = 6) was recorded while the second of two diagrams of
different h-vectors still filled its own orbits, to pin the lookup-only
path that keys it now.

The keys of one long-lived process come from stacked orbit tables once it
has filled enough orbits (galerig.cohomology._orbit), so the report and
iso files of n = 5 and n = 6 are also checked in one interpreter on both
sides of that switch.
"""

from pathlib import Path

import pytest

import galerig.cohomology
from galerig.cli import main
from galerig.gf2 import monomial_count

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


def test_report_and_iso_goldens_hold_across_the_stacked_orbit_tables(monkeypatch, capsys):
    """From a fresh count of chained fills, the report and iso files of
    n = 5 and n = 6 are run in passes until a pass starts with both
    stacked tables built, every output byte-equal to its file."""
    monkeypatch.setattr(galerig.cohomology, "_chained_fills", {})
    built = galerig.cohomology._orbit_table.cache_info
    galerig.cohomology._orbit_table.cache_clear()
    names = [name for name in sorted(p.name for p in GOLDEN.glob("*.txt"))
             if name.startswith(("report_", "iso_")) and
             sum(map(int, name.removesuffix(".txt").split("_")[1].split("-"))) in (8, 9)]
    assert len(names) == 12
    for passes in range(10):
        stacked = built().currsize == 2
        for name in names:
            assert main(_argv(name)) == 0
            assert capsys.readouterr().out == (GOLDEN / name).read_text(), (passes, name)
        if stacked:
            break
    assert stacked and built().misses == 2
    assert galerig.cohomology._chained_fills == {5: monomial_count(5),
                                                  6: monomial_count(6)}
