"""Wide check of the records that galerig cohomology prints.

The command reads each matrix's record off its socle functional phi, from
one top_functionals call per diagram: hilbert is the h-vector that phi's
catalecticant ranks are checked against, generators are the products of
the facet forms over the minimal non-faces (cohomology.generators), and
the ideal that --json prints is Ann(phi) (cohomology.annihilator_rows).
Here every printed record is compared with the saturated path: the
quotient that cohomology.quotient_presentation saturates degree by degree
from the generators, its Hilbert function and its ideal under lowest-bit
pivots (oracles.echelon_by_scan), with the generators multiplied out by
the oracle's polynomial product (oracles.poly_multiply).

Range: every matrix of every canonical pentagon of total <= 12 and
heptagon of total <= 10, 114 diagrams and 9,900 matrices (m <= 12), one
--json run per diagram; and every matrix of (10,1,1,1,1), m = 14: the
text of the whole list (hilbert and generators of all 2,049) and one
--json --matrix run per matrix for its ideal, because the --json of the
whole list peaks near 700 MB.  Saturating every quotient is too slow for
tier-1, so this sits outside tier-1's testpaths.  Runtime: about 90 s
(31 s of it the 2,049 --matrix runs), peak RSS 161 MB, on a 2-core x86
VM under Python 3.11.  The same comparison on every canonical pentagon
of total 13 and 14 (136 diagrams, 45,808 matrices, m <= 14) passed once
in 554 s with a peak RSS of 780 MB, too slow and large to keep here.

Run from the repository root:  python3 -m pytest checks/test_cohomology_record_wide.py
"""

import json
import sys
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.charmat import VARIABLES, enumerate_charmats, row_strings  # noqa: E402
from galerig.cli import main  # noqa: E402
from galerig.cohomology import quotient_presentation  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402
from galerig.gf2 import format_poly, to_lists  # noqa: E402

DIAGRAMS = oracles.canonical_diagrams(5, 12) + oracles.canonical_diagrams(7, 10)
WIDE = (10, 1, 1, 1, 1)


def _matrices(weights):
    fs = face_structure(GaleDiagram(weights))
    return fs, enumerate_charmats(fs)


def _expected(fs, block, ideal=True) -> dict:
    """The --json record of a matrix by the saturated path, or without
    its ideal the fields that the text prints."""
    q = quotient_presentation(fs, block)
    full = tuple(block) + VARIABLES
    products = [reduce(oracles.poly_multiply, (oracles.form_poly(full[i]) for i in nonface))
                for nonface in fs.minimal_nonfaces]
    record = {"block": row_strings(block), "n": q.n, "hilbert": list(q.hilbert),
              "generators": [format_poly((len(nonface), oracles.poly_to_vec(p, len(nonface))))
                             for nonface, p in zip(fs.minimal_nonfaces, products)]}
    if ideal:
        record["ideal"] = {str(d): [to_lists(d, row)
                                    for row in oracles.echelon_by_scan(q.ideal.rows(d))[1]]
                           for d in range(q.n + 2)}
    return record


def _printed(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_range():
    assert len(DIAGRAMS) == 114
    assert sum(len(_matrices(w)[1]) for w in DIAGRAMS) == 9900
    assert len(_matrices(WIDE)[1]) == 2049


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_json_records_are_the_saturated_quotients(weights, capsys):
    fs, blocks = _matrices(weights)
    records = json.loads(_printed(["cohomology", ",".join(map(str, weights)), "--json"], capsys))
    assert records == [_expected(fs, block) for block in blocks]


def test_wide_text_records_are_the_saturated_quotients(capsys):
    fs, blocks = _matrices(WIDE)
    text = _printed(["cohomology", ",".join(map(str, WIDE))], capsys).splitlines()
    expected = [_expected(fs, block, ideal=False) for block in blocks]
    assert text == [line for r in expected for line in (
        " ".join(r["block"]), f"  hilbert: {r['hilbert']}",
        "  generators: " + ", ".join(r["generators"]))]


def test_wide_json_records_are_the_saturated_quotients(capsys):
    fs, blocks = _matrices(WIDE)
    for k, block in enumerate(blocks, start=1):
        argv = ["cohomology", ",".join(map(str, WIDE)), "--matrix", str(k), "--json"]
        assert json.loads(_printed(argv, capsys)) == [_expected(fs, block)], k
