"""Wide check of report --verify's ideal-row test against the saturated
quotients.

galerig.verify matches a published ideal row in two steps, on the ideal J
its generators of degree <= n + 1 generate (verify._row_ideal): each
label's socle functional phi vanishes on J_n, and dim (S/J)_d = h_d for
d <= n with J full in degree n + 1 (verify._is_annihilator).  Here that
test is compared with the equality of J and the matrix's saturated
quotient's ideal (oracles.ideal_equal, on cohomology.quotient_presentation)
for every matrix of the diagrams of test_cohomology's key_range, 48
diagrams and 376 matrices: every canonical pentagon of total <= 8 and
heptagon of total <= 11, and every member of a multi-member pentagon Tor
class of total <= 9.  phi comes from one top_functionals call per
diagram, as verify reads it.  Each matrix's own generators are tried,
then each with one generator dropped, with a random element of I added
(nonzero, of a random degree <= n + 1 where I has one) and with a random
polynomial outside I added (of a random degree <= n).

Runtime: about 3 s on a 2-core x86 VM under Python 3.11, pytest's
start-up included.

Run from the repository root:  python3 -m pytest checks/test_ideal_rows_wide.py
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from galerig.betti import betti_group, h_vector  # noqa: E402
from galerig.charmat import enumerate_charmats  # noqa: E402
from galerig.cohomology import generators, quotient_presentation, top_functionals  # noqa: E402
from galerig.gale import GaleDiagram, face_structure  # noqa: E402
from galerig.gf2 import monomial_count  # noqa: E402
from galerig.verify import _is_annihilator, _row_ideal  # noqa: E402

DIAGRAMS = sorted(set(oracles.canonical_diagrams(5, 8) + oracles.canonical_diagrams(7, 11))
                  | {w for members in map(betti_group, oracles.canonical_diagrams(5, 9))
                     if len(members) > 1 for w in members})


def _variants(gens, q, rng):
    """(name, generators): the matrix's own, each with one dropped, and one
    with a random element of I and one with a random polynomial outside I
    added."""
    yield "own", gens
    for i in range(len(gens)):
        yield f"drop {i}", gens[:i] + gens[i + 1:]
    degree = rng.choice([d for d in range(q.n + 2) if q.ideal.rows(d)])
    member = 0
    while not member:
        member = 0
        for row in q.ideal.rows(degree):
            if rng.getrandbits(1):
                member ^= row
    yield "member", gens + [(degree, member)]
    degree = rng.randint(1, q.n)
    outside = 0
    while not outside or q.ideal.contains(degree, outside):
        outside = rng.getrandbits(monomial_count(degree))
    yield "outside", gens + [(degree, outside)]


def test_range():
    assert len(DIAGRAMS) == 48  # 10 + 34 + 4 class members of total 9
    assert sum(len(enumerate_charmats(face_structure(GaleDiagram(w)))) for w in DIAGRAMS) == 376


@pytest.mark.parametrize("weights", DIAGRAMS, ids=lambda w: ",".join(map(str, w)))
def test_row_test_is_ideal_equality(weights):
    diagram = GaleDiagram(weights)
    fs, h = face_structure(diagram), h_vector(diagram)
    blocks = enumerate_charmats(fs)
    rng = random.Random(",".join(map(str, weights)))
    outcomes = set()
    for block, phi in zip(blocks, top_functionals(fs, blocks, h)):
        q = quotient_presentation(fs, block)
        for name, gens in _variants(generators(fs, block), q, rng):
            expected = oracles.ideal_equal(gens, q)
            assert _is_annihilator(_row_ideal(gens, fs.n, h), [phi]) == expected, (block, name)
            outcomes.add((name, expected))
    assert {("own", True), ("member", True), ("outside", False)} <= outcomes
    # a dropped generator leaves a smaller ideal for some matrix
    assert any(name.startswith("drop") and not equal for name, equal in outcomes)
