"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.  All arithmetic is exact; comparisons are
exact matches.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

from galerig.betti import betti_group, betti_table
from galerig.charmat import enumerate_charmats, row_strings
from galerig.cohomology import (
    LINEAR_FORMS,
    codim,
    invariant_profile,
    order,
    quotient_presentation,
)
from galerig.gale import GaleDiagram, face_structure
from galerig.gf2 import monomial_count, parse_poly
from galerig.verify import ideal_tables, label_blocks, profile_tables

import oracles

WEIGHTS_P = (3, 1, 2, 1, 1)
WEIGHTS_Q = (2, 2, 2, 1, 1)


def _criterion(number: int, description: str, budget: float | None, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"
        print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {budget:.0f}s) - {description}")
    else:
        print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")


def _fixture_quotients():
    fs_p = face_structure(GaleDiagram(WEIGHTS_P))
    fs_q = face_structure(GaleDiagram(WEIGHTS_Q))
    qa = {lab: quotient_presentation(fs_p, blk)
          for lab, blk in label_blocks("A").items()}
    qb = {lab: quotient_presentation(fs_q, blk)
          for lab, blk in label_blocks("B").items()}
    return fs_p, fs_q, qa, qb


def test_criterion_1_tor_classification():
    def body():
        assert set(betti_group(WEIGHTS_P)) == {WEIGHTS_P, WEIGHTS_Q}

    _criterion(1, "betti_group([3,1,2,1,1]) is exactly the two-member class", 1.0, body)


def test_criterion_2_petersen_structure():
    def body():
        assert len(oracles.five_cycles()) == 12
        for w in oracles.pentagon_diagrams(10):
            assert len(oracles.directed_label_sequences(w)) <= 24
            target = oracles.adjacent_sum_multiset(w)
            for member in betti_group(w):
                assert oracles.adjacent_sum_multiset(member) == target

    _criterion(2, "12 five-cycles, <= 24 readings, adjacent sums preserved "
                  "for all totals <= 10", 10.0, body)


def test_criterion_3_betti_duality():
    def body():
        rng = random.Random(20260810)
        for _ in range(1000):
            w = tuple(rng.randint(1, 9) for _ in range(5))
            diagram = GaleDiagram(w)
            table = betti_table(diagram)
            for (i, twoj), beta in table.items():
                assert table.get((3 - i, 2 * diagram.m - twoj), 0) == beta
            assert [sum(b for (row, _), b in table.items() if row == i)
                    for i in range(4)] == [1, 5, 5, 1]

    _criterion(3, "duality and row sums 1,5,5,1 over 1000 random pentagon vectors",
               5.0, body)


def test_criterion_4_charmat_enumeration():
    def body():
        for family, weights in (("A", WEIGHTS_P), ("B", WEIGHTS_Q)):
            fs = face_structure(GaleDiagram(weights))
            listed = set(label_blocks(family).values())
            computed = set(enumerate_charmats(fs))
            assert len(computed) == 21
            assert computed == listed, f"computed {family} matrices differ from the list"

    _criterion(4, "enumeration returns exactly the 21+21 published blocks", 5.0, body)


def test_criterion_5_ideal_tables():
    def body():
        fs_p, fs_q, qa, qb = _fixture_quotients()
        from galerig.cohomology import generators
        from oracles import ideal_equal

        unparseable_rows = []
        for row in ideal_tables():
            fs, quotients = (fs_p, qa) if row["table"] == "A" else (fs_q, qb)
            try:
                gens = [parse_poly(s) for s in row["generators"]]
            except ValueError:
                unparseable_rows.append(row["labels"])
                blocks = label_blocks(row["table"])
                for lab in row["labels"]:  # the computed generators stand in
                    assert ideal_equal(generators(fs, blocks[lab]), quotients[lab])
                continue
            for lab in row["labels"]:
                assert ideal_equal(gens, quotients[lab]), f"row {row['labels']} vs {lab}"
        assert unparseable_rows == [["A10", "A12"]]

    _criterion(5, "every parseable generator row matches; only the A10/A12 row "
                  "is unparseable", 10.0, body)


def test_criterion_6_invariant_tables():
    def body():
        _, _, qa, qb = _fixture_quotients()
        tables = profile_tables()
        discrepancies = set()
        for table_name in ("codim_A", "ord_A", "codim_B", "ord_B"):
            kind = table_name.split("_")[0]
            quotients = qa if table_name.endswith("A") else qb
            for row_label, published in tables[table_name].items():
                q = quotients[row_label]
                computed = invariant_profile(oracles.socle_functional(q), q.hilbert)[kind]
                for col, (pub, got) in enumerate(zip(published, computed)):
                    if pub == got:
                        continue
                    gamma = LINEAR_FORMS[col]
                    # a value read off the socle functional that differs from
                    # the table must be certified by two independent paths
                    if kind == "ord":
                        assert (order(gamma, q.ideal) == oracles.order_via_quotient_maps(gamma, q)
                                == got)
                    else:
                        assert codim(gamma, q.ideal) == oracles.codim_on_cosets(gamma, q) == got
                    discrepancies.add((table_name, row_label, tables["forms"][col]))
        assert ("ord_A", "A1", "x") in discrepancies

    _criterion(6, "profiles match the published tables except dual-path-certified "
                  "discrepancies, including ord(x) for A1", None, body)


def test_criterion_7_exhaustive_iso_search():
    fs_p, fs_q, qa, qb = _fixture_quotients()
    qas, qbs = list(qa.values()), list(qb.values())

    def body():
        keys_a, keys_b = oracles.quotient_keys(qas), oracles.quotient_keys(qbs)
        assert len(keys_a) == len(keys_b) == 21
        assert sum(key == other for key in keys_a for other in keys_b) == 0
        witnesses = oracles.search_iso_witnesses(qas, qbs)
        assert all(w is None for row in witnesses for w in row)
        assert len(witnesses) == 21 and all(len(row) == 21 for row in witnesses)

    _criterion(7, "all 441 cross pairs: zero isomorphisms by key comparison and "
                  "by the 168-substitution search (single-threaded)", 60.0, body)


def test_criterion_8_sanity_floor():
    def body():
        for weights in (WEIGHTS_P, WEIGHTS_Q):
            diagram = GaleDiagram(weights)
            fs = face_structure(diagram)
            f, _ = oracles.face_counts(diagram)
            vertex_count = f[diagram.n]
            for block in enumerate_charmats(fs):
                q = quotient_presentation(fs, block)
                assert q.hilbert == (1, 3, 5, 5, 3, 1)
                assert sum(q.hilbert) == 18 == vertex_count
                assert oracles.poincare_nondegenerate(q)
                assert q.ideal.dimension(6) == monomial_count(6) == 28
        pentagon = GaleDiagram((1, 1, 1, 1, 1))
        fs5 = face_structure(pentagon)
        blocks = enumerate_charmats(fs5)
        assert len(blocks) == 5
        for block in blocks:
            q = quotient_presentation(fs5, block)
            assert sum(q.hilbert) == 5
            assert oracles.poincare_nondegenerate(q)

    _criterion(8, "every fixture quotient: Hilbert [1,3,5,5,3,1], 18 = vertex "
                  "count, nondegenerate pairing, full degree 6; pentagon: 5 "
                  "matrices of total dimension 5", None, body)


def test_criterion_9_brute_force_oracles():
    def body():
        for w in oracles.pentagon_diagrams(9):
            diagram = GaleDiagram(w)
            fs = face_structure(diagram)
            assert {oracles.one_based(s) for s in fs.minimal_nonfaces} == \
                oracles.brute_force_minimal_nonfaces(diagram), w
            assert [row_strings(f) for f in enumerate_charmats(fs)] == \
                [oracles.block_row_strings(b, fs.n) for b in oracles.brute_force_charmats(fs)], w

    _criterion(9, "minimal non-faces and characteristic matrices agree with "
                  "full brute force on every pentagon diagram with total <= 9",
               120.0, body)
