"""Cohomology quotients, codim/ord invariants, and the isomorphism keys."""

import random
from collections import Counter
from itertools import chain, combinations

import pytest

import galerig.cohomology
from galerig.cohomology import (
    LINEAR_FORMS,
    X,
    Y,
    Z,
    GradedQuotient,
    annihilator_rows,
    check_inverse_system,
    codim,
    find_graded_iso,
    generators,
    invariant_profile,
    iso_keys,
    order,
    quotient_presentation,
    substitution_maps_ideal,
    quotient_functional,
    top_functionals,
    _GENERATORS,
    _catalecticant_tables,
    _ranks,
    _orbit,
    _orbit_table,
    _saturated_ideal,
    _subst_matrix,
    _word_tree,
)
from galerig.betti import betti_group, h_vector
from galerig.cli import _classes, _matrices, _matrix_keys, classify
from galerig.gale import GaleDiagram, face_structure
from galerig.gf2 import (
    GradedSubspace,
    contract_form,
    image,
    monomial_count,
    monomials,
    parse_poly,
    rank,
    table_image,
    times_form,
)
from galerig.charmat import (
    VARIABLES,
    canonical_charmats,
    enumerate_charmats,
    is_characteristic,
    orbit_sizes,
    orbits,
)
from galerig.verify import label_blocks

import oracles
from oracles import (
    face_counts,
    form_poly,
    gl3,
    ideal_equal,
    poincare_nondegenerate,
    poly_to_vec,
    socle_functional,
    substitute_linear,
    _compose,
)

P = GaleDiagram((3, 1, 2, 1, 1))
Q = GaleDiagram((2, 2, 2, 1, 1))
FS_P = face_structure(P)
FS_Q = face_structure(Q)

BLOCKS_A = label_blocks("A")
BLOCKS_B = label_blocks("B")


def _quotient(label):
    if label.startswith("A"):
        return quotient_presentation(FS_P, BLOCKS_A[label])
    return quotient_presentation(FS_Q, BLOCKS_B[label])


QA1 = _quotient("A1")
QB1 = _quotient("B1")


# ---------------------------------------------------------------------------
# presentation


def test_a1_ideal_matches_published_row():
    gens = [parse_poly(s) for s in
            ("x^3y+yz^3", "y^3+yz^2", "y^2z+z^3", "xz", "x^4")]
    assert ideal_equal(gens, QA1)


def test_b1_ideal_matches_published_row():
    gens = [parse_poly(s) for s in
            ("x^2y^2+y^2z^2", "y^4+y^2z^2", "y^2z+z^3", "xz", "x^3")]
    assert ideal_equal(gens, QB1)


def test_quotients_are_equal_by_n_ideal_and_hilbert():
    assert GradedQuotient(QA1.n, QA1.ideal, QA1.hilbert) == QA1
    assert QB1 != QA1
    assert GradedQuotient(QA1.n + 1, QA1.ideal, QA1.hilbert) != QA1


def test_quotient_is_unhashable():
    with pytest.raises(TypeError):
        hash(QA1)


def test_hilbert_is_h_vector():
    assert QA1.hilbert == (1, 3, 5, 5, 3, 1)
    _, h = face_counts(P)
    assert QA1.hilbert == h


def test_ideal_equal_permutation_invariant():
    gens = [parse_poly(s) for s in
            ("xz", "x^4", "y^2z+z^3", "x^3y+yz^3", "y^3+yz^2")]
    assert ideal_equal(gens, QA1)


def test_ideal_equal_rejects_inhomogeneous():
    # an inhomogeneous generator cannot be written as (degree, vec)
    with pytest.raises(ValueError):
        parse_poly("x+x^2")
    # x^(n+2), above the stored range, lies in every ideal full in degree
    # n + 1: ideal_equal leaves it out, and the saturation alone refuses it
    above = (QA1.n + 2, 1)
    assert not ideal_equal([above], QA1)
    assert ideal_equal([above] + generators(FS_P, BLOCKS_A["A1"]), QA1)
    with pytest.raises(ValueError, match="above the stored range"):
        _saturated_ideal([above], QA1.n + 1)


def test_ideal_equal_detects_difference():
    gens = [parse_poly(s) for s in
            ("x^3y+yz^3", "y^3+yz^2", "y^2z+z^3", "xz", "x^4+y^4")]
    assert not ideal_equal(gens, QA1)


def test_noncharacteristic_block_rejected():
    # the block (00111, 11000, 00111): facets n+1 and n+3 share a column
    with pytest.raises(ValueError):
        quotient_presentation(FS_P, (0b101, 0b101, 0b101, 0b010, 0b010))


def test_pentagon_quotients_have_dimension_five():
    fs = face_structure(GaleDiagram((1, 1, 1, 1, 1)))
    blocks = enumerate_charmats(fs)
    assert len(blocks) == 5
    for block in blocks:
        q = quotient_presentation(fs, block)
        assert q.hilbert == (1, 3, 1)
        assert sum(q.hilbert) == 5


# ---------------------------------------------------------------------------
# codim and order


def test_codim_examples():
    assert codim(X, QA1.ideal) == 1  # witness z: xz lies in the ideal
    assert codim(Y, QA1.ideal) == 2  # witness y^2 + z^2
    assert codim(Y, QB1.ideal) == 3


def test_order_examples():
    assert order(Y | Z, QA1.ideal) == 3  # (y+z)^3 = (y^3+yz^2) + (y^2z+z^3)
    assert order(Z, QA1.ideal) == 6
    # the published table prints 3 here; the definition gives 4 (x^3 is not
    # reachable from the degree-3 component, x^4 is a generator)
    assert order(X, QA1.ideal) == 4


def test_zero_form_rejected():
    for form in (0, 8):
        with pytest.raises(ValueError):
            codim(form, QA1.ideal)
        with pytest.raises(ValueError):
            order(form, QA1.ideal)


def _profile(q):
    return invariant_profile(socle_functional(q), q.hilbert)


def test_profile_examples():
    prof_a1 = _profile(QA1)
    assert prof_a1["codim"] == [1, 2, 1, 3, 3, 2, 2]
    assert prof_a1["ord"][6] == 4  # ord(x+y+z)
    prof_b1 = _profile(QB1)
    assert prof_b1["codim"] == [1, 3, 1, 3, 2, 2, 2]


def test_dual_path_oracles_agree_everywhere():
    """Three paths per cell of the 42 fixture quotients: the profile read
    off the socle functional, codim and order on the saturated quotient,
    and the coset-coordinate oracles."""
    labels = [f"A{i}" for i in range(1, 22)] + [f"B{i}" for i in range(1, 22)]
    for label in labels:
        q = _quotient(label)
        prof = _profile(q)
        assert prof["forms"] == ["x", "y", "z", "x+y", "x+z", "y+z", "x+y+z"]
        for gamma, c, o in zip(LINEAR_FORMS, prof["codim"], prof["ord"]):
            assert c == codim(gamma, q.ideal) == oracles.codim_on_cosets(gamma, q), label
            assert o == order(gamma, q.ideal) == oracles.order_via_quotient_maps(gamma, q), label


def test_profile_bounds():
    prof = _profile(QA1)
    assert all(1 <= c <= QA1.n - 1 for c in prof["codim"])
    assert all(2 <= o <= QA1.n + 1 for o in prof["ord"])


# ---------------------------------------------------------------------------
# isomorphism keys and witnesses


def test_gl3_has_168_elements():
    assert len(gl3()) == 168
    assert (1, 2, 4) in gl3()  # identity
    # distinct, ascending, and every element invertible by elimination
    assert list(gl3()) == sorted(set(gl3()))
    assert all(rank(rows, 3) == 3 for rows in gl3())


def test_iso_between_matrices_sharing_a_row():
    qa2, qa3, qa5 = _quotient("A2"), _quotient("A3"), _quotient("A5")
    assert find_graded_iso(qa2, qa3) is not None
    assert find_graded_iso(qa2, qa5) is not None


def test_identity_self_iso():
    assert substitution_maps_ideal((1, 2, 4), QA1, QA1)
    assert find_graded_iso(QA1, QA1) is not None


def test_no_iso_between_a1_and_b1():
    assert find_graded_iso(QA1, QB1) is None


def test_iso_hilbert_gate():
    fs = face_structure(GaleDiagram((1, 1, 1, 1, 1)))
    pentagon_q = quotient_presentation(fs, enumerate_charmats(fs)[0])
    assert find_graded_iso(QA1, pentagon_q) is None


def test_pairwise_matrix_examples():
    assert oracles.quotient_keys([QA1]) == oracles.quotient_keys([QA1])
    assert oracles.quotient_keys([_quotient("A2")]) == oracles.quotient_keys([_quotient("A5")])


def test_pairwise_matrix_self_diagonal():
    phis = [socle_functional(_quotient(f"A{i}")) for i in range(1, 22)]
    n, h = QA1.n, QA1.hilbert
    keys = iso_keys(n, h, phis)
    # a key does not depend on the list it is computed in
    assert keys == [iso_keys(n, h, [phi])[0] for phi in phis] == iso_keys(n, h, phis[::-1])[::-1]
    matrix = [[a == b for b in keys] for a in keys]
    assert all(matrix[i][i] for i in range(21))
    # symmetric relation: an iso one way has an inverse the other way
    assert all(matrix[i][j] == matrix[j][i] for i in range(21) for j in range(21))


def test_found_substitution_transports_profiles():
    qa2, qa5 = _quotient("A2"), _quotient("A5")
    rows = find_graded_iso(qa2, qa5)
    images = tuple(form_poly(r) for r in rows)
    for gamma in LINEAR_FORMS:
        image = poly_to_vec(substitute_linear(form_poly(gamma), images), 1)
        assert codim(gamma, qa2.ideal) == codim(image, qa5.ideal)
        assert order(gamma, qa2.ideal) == order(image, qa5.ideal)


def test_subst_matrix_matches_oracle_substitution():
    for rows in gl3():
        images = tuple(form_poly(r) for r in rows)
        for degree in range(8):
            expected = tuple(poly_to_vec(substitute_linear({mono}, images), degree)
                             for mono in monomials(degree))
            assert _subst_matrix(rows, degree) == expected


def _all_quotients(weights):
    fs = face_structure(GaleDiagram(weights))
    return [quotient_presentation(fs, b) for b in enumerate_charmats(fs)]


@pytest.fixture(scope="module")
def key_comparisons():
    """(left, right) weight pairs: self-comparisons of every canonical
    pentagon of total <= 8 (10 diagrams) and heptagon of total <= 11 (34
    diagrams), and the cross pairs of every multi-member pentagon Tor class
    of total <= 9 (3 classes)."""
    comparisons = [(w, w) for w in oracles.canonical_diagrams(5, 8)
                   + oracles.canonical_diagrams(7, 11)]
    for members in {betti_group(w) for w in oracles.canonical_diagrams(5, 9)}:
        comparisons += combinations(members, 2)
    return comparisons


@pytest.fixture(scope="module")
def key_quotients(key_comparisons):
    """Every quotient, in enumeration order, of each diagram compared."""
    return {w: _all_quotients(w) for w in set(chain(*key_comparisons))}


@pytest.fixture(scope="module")
def key_range(key_comparisons, key_quotients):
    """(left, right) quotient lists of key_comparisons."""
    return [(key_quotients[a], key_quotients[b]) for a, b in key_comparisons]


def test_iso_keys_agree_with_substitution_search(key_range):
    pairs = 0
    for left, right in key_range:
        expected = [[w is not None for w in row]
                    for row in oracles.search_iso_witnesses(left, right)]
        keys_left, keys_right = oracles.quotient_keys(left), oracles.quotient_keys(right)
        assert [[a == b for b in keys_right] for a in keys_left] == expected
        pairs += len(left) * len(right)
    assert pairs == 3850 + 136 + 2539


def test_iso_keys_equal_the_168_substitution_scan(key_range):
    # one diagram's quotients share n and hilbert: one iso_keys call per list
    for quotients in {id(side): side for pair in key_range for side in pair}.values():
        n, h = quotients[0].n, quotients[0].hilbert
        phis = [socle_functional(q) for q in quotients]
        assert iso_keys(n, h, phis) == [oracles.scan_iso_key(q) for q in quotients]


def test_orbit_weighted_keys_equal_per_matrix_keys(key_quotients):
    """The keys iso and report compare, one top functional per
    automorphism orbit (cli._matrix_keys), are the keys of every matrix's
    own saturated quotient on every key_range list, so every orbit lies in
    one key class and each key is counted with its orbit's size."""
    for w, quotients in key_quotients.items():
        fs = face_structure(GaleDiagram(w))
        blocks = enumerate_charmats(fs)
        representatives = orbits(fs, blocks)
        keys = oracles.quotient_keys(quotients)
        assert all(keys[i] == keys[r] for i, r in enumerate(representatives)), w
        assert _matrix_keys(fs, blocks, h_vector(GaleDiagram(w))) == keys, w


def test_saturated_ideal_equals_the_two_pass_build(key_quotients):
    """_saturated_ideal reduces each degree once and stores those rows: on
    every key_range quotient its ideal is the two-pass build, which
    reduces every degree again with GradedSubspace.from_spans."""
    for w, quotients in key_quotients.items():
        fs = face_structure(GaleDiagram(w))
        for block, q in zip(enumerate_charmats(fs), quotients, strict=True):
            gens = generators(fs, block)
            assert q.ideal == _saturated_ideal(gens, fs.n + 1) \
                == oracles.saturated_ideal_by_two_passes(gens, fs.n + 1), (w, block)


def test_canonical_classes_give_the_list_orbits_and_records(key_comparisons):
    """The report's path that never lists a member's matrices, on every
    key_range diagram: the canonical tuples and their multiplicities are
    the full list's sorted and counted, summing to its length; each orbit
    representative (charmat.orbit_sizes) lies in its own oracle orbit, of
    its size; and orbits read off the canonical tuples are the oracle
    union-find over the whole list.  On each multi-member class compared,
    classify gives, from its canonical classes, the record built from the
    full lists."""
    for w in sorted(set(chain(*key_comparisons))):
        fs = face_structure(GaleDiagram(w))
        blocks = enumerate_charmats(fs)
        canonical = canonical_charmats(fs)
        assert canonical == oracles.canonical_counts(fs, blocks), w
        assert sum(canonical.values()) == len(blocks), w
        orbit_of = {blocks[i]: orbit for orbit in oracles.polytope_symmetry_orbits(fs, blocks)
                    for i in orbit}
        sizes = orbit_sizes(fs, canonical)
        assert len({orbit_of[r] for r in sizes}) == len(sizes), w
        assert all(len(orbit_of[r]) == size for r, size in sizes.items()), w
        assert sum(sizes.values()) == len(blocks), w
        assert orbits(fs, blocks) == oracles.orbits_by_matrix_union(fs, blocks), w
    classes = {pair for pair in key_comparisons if pair[0] != pair[1]}
    assert len(classes) == 3
    for members in classes:
        matrices = {w: _matrices(GaleDiagram(w)) for w in members}
        record = oracles.class_record_by_lists(matrices)
        assert classify({w: _classes(GaleDiagram(w)) for w in members}) == record


def test_top_functional_is_the_socle_functional(key_quotients):
    """The functional read off I_n alone, checked against the h-vector, is
    the socle functional of the saturated quotient, on every matrix of every
    key_range diagram, and the h-vector is the quotients' Hilbert function."""
    for w, quotients in key_quotients.items():
        diagram = GaleDiagram(w)
        fs, h = face_structure(diagram), h_vector(diagram)
        assert h == quotients[0].hilbert and h == h[::-1] and h[0] == h[-1] == 1, w
        assert all(q.hilbert == h for q in quotients), w
        assert (top_functionals(fs, enumerate_charmats(fs), h)
                == [socle_functional(q) for q in quotients]), w


def test_forward_pass_functional_equals_the_reduced_echelon_reader(key_quotients):
    """phi read off the forward pass of elimination, without
    back-substitution, is the functional the reduced echelon rows give, on
    every orbit representative of every key_range diagram; a saturated
    quotient's reduced rows feed the same reader."""
    for w, quotients in key_quotients.items():
        diagram = GaleDiagram(w)
        fs, h = face_structure(diagram), h_vector(diagram)
        blocks = enumerate_charmats(fs)
        distinct = sorted(set(orbits(fs, blocks)))
        phis = top_functionals(fs, [blocks[r] for r in distinct], h)
        for r, phi in zip(distinct, phis):
            assert (phi == oracles.top_functional_by_echelon(fs, blocks[r])
                    == quotient_functional(quotients[r])), (w, r)


def test_functionals_do_not_depend_on_the_matrix_order(key_quotients):
    """top_functionals, which reads I_n's rows from a table that earlier
    calls filled and shares forward passes within a call, gives the same
    phi on every orbit representative of every key_range diagram whether
    the representatives are taken in order or in reverse, and each phi is
    the saturated quotient's."""
    for w, quotients in key_quotients.items():
        diagram = GaleDiagram(w)
        fs, h = face_structure(diagram), h_vector(diagram)
        blocks = enumerate_charmats(fs)
        distinct = sorted(set(orbits(fs, blocks)))
        phis = top_functionals(fs, [blocks[r] for r in distinct], h)
        assert phis == [quotient_functional(quotients[r]) for r in distinct], w
        assert top_functionals(fs, [blocks[r] for r in distinct[::-1]], h) == phis[::-1], w


def test_top_functionals_equal_the_one_matrix_oracle(key_quotients):
    """The kernel, one call per diagram with forward states shared by
    block prefix, equals the one-matrix oracle (oracles.top_functional:
    every block eliminated from nothing, the duality checked by bitwise
    ranks) on the orbit representatives of every key_range diagram, in
    canonical order, reversed and shuffled, so that no prefix state of
    one matrix reaches another's phi; and on every phi the ranks the
    kernel checks (_ranks, sliced off the stacked image and mirrored) are
    the bitwise ranks in every degree d = 0..n."""
    rng = random.Random(4)
    for w in sorted(key_quotients):
        diagram = GaleDiagram(w)
        fs, h = face_structure(diagram), h_vector(diagram)
        blocks = enumerate_charmats(fs)
        representatives = [blocks[r] for r in sorted(set(orbits(fs, blocks)))]
        expected = [oracles.top_functional(fs, forms, h) for forms in representatives]
        canonical = list(range(len(representatives)))
        shuffled = rng.sample(canonical, len(canonical))
        for order in (canonical, canonical[::-1], shuffled):
            assert (top_functionals(fs, [representatives[i] for i in order], h)
                    == [expected[i] for i in order]), (w, order)
        for phi in expected:
            assert _ranks(phi, fs.n) == oracles.catalecticant_ranks_by_bits(phi, fs.n) \
                == list(h), (w, phi)


def test_top_functionals_do_not_depend_on_the_row_table(key_quotients, monkeypatch):
    """top_functionals reads I_n's rows from a per-process table keyed by n
    and a non-face's forms as a sorted tuple, one entry per form multiset:
    non-faces whose forms are one multiset in different facet orders share
    it.  On the orbit representatives of every key_range diagram its phis
    are the reduced echelon reader's with the table cleared, after a
    diagram of another n filled it, and after another diagram of the same
    n did, whose rows most diagrams then read."""
    table = galerig.cohomology._nonface_rows
    keys = []
    monkeypatch.setattr(galerig.cohomology, "_nonface_rows",
                        lambda n, factors: keys.append(factors) or table(n, factors))
    batches = {}
    for w in sorted(key_quotients):
        diagram = GaleDiagram(w)
        fs = face_structure(diagram)
        blocks = enumerate_charmats(fs)
        batches[w] = (fs, [blocks[r] for r in sorted(set(orbits(fs, blocks)))], h_vector(diagram))
    reused = shared = 0
    for w, (fs, batch, h) in batches.items():
        expected = [oracles.top_functional_by_echelon(fs, forms) for forms in batch]
        other = next(v for v in batches if batches[v][0].n != fs.n)
        same = [v for v in batches if v != w and batches[v][0].n == fs.n]
        built = []  # the entries w's call adds after each filler
        for filler in [None, other] + same[:1]:
            table.cache_clear()
            if filler is not None:
                top_functionals(*batches[filler])
            before = table.cache_info().misses
            assert top_functionals(fs, batch, h) == expected, (w, filler)
            built.append(table.cache_info().misses - before)
        reused += built[-1] < built[0]
        # w's non-faces, each as its forms in facet order
        ordered = {tuple((tuple(forms) + VARIABLES)[i] for i in nonface)
                   for forms in batch for nonface in fs.minimal_nonfaces}
        multisets = {frozenset(Counter(block).items()) for block in ordered}
        assert built[0] == len(multisets), w
        shared += len(multisets) < len(ordered)
    table.cache_clear()
    assert reused >= len(batches) // 2
    assert shared
    assert keys and all(isinstance(k, tuple) and list(k) == sorted(k) and set(k) <= set(range(1, 8))
                        for k in keys)


def test_top_functional_refuses_a_wrong_h_vector():
    # the catalecticant ranks of A1 are its Hilbert function, so a change in
    # any one degree, on either side of n/2, is refused and named, in a
    # batch of one
    h = list(QA1.hilbert)
    assert top_functionals(FS_P, [BLOCKS_A["A1"]], h) == [socle_functional(QA1)]
    for d in range(QA1.n + 1):
        wrong = h[:d] + [h[d] + 1] + h[d + 1:]
        with pytest.raises(ValueError, match=f"in degree {d}$"):
            top_functionals(FS_P, [BLOCKS_A["A1"]], wrong)
    with pytest.raises(ValueError, match="entries"):
        top_functionals(FS_P, [BLOCKS_A["A1"]], h[:-1])


def test_check_inverse_system_refuses_an_h_vector_of_the_wrong_length():
    """Every entry of h is compared with a rank, so an h-vector with other
    than n + 1 entries is refused, short or long, though its leading
    entries agree with the ranks."""
    phi = socle_functional(QA1)
    assert QA1.hilbert == (1, 3, 5, 5, 3, 1)
    check_inverse_system(phi, QA1.n, QA1.hilbert)
    for h in ((1, 3, 5, 5, 3), (1, 3, 5, 5, 3, 1, 7), (1, 3, 5, 5)):
        with pytest.raises(ValueError, match="entries"):
            check_inverse_system(phi, QA1.n, h)


def test_top_functional_refuses_a_non_characteristic_matrix():
    with pytest.raises(ValueError, match="not characteristic"):
        top_functionals(FS_P, [(0b101, 0b101, 0b101, 0b010, 0b010)], QA1.hilbert)


def _oracle_error(batch, h):
    """The ValueError message of the one-matrix oracle run matrix by
    matrix over a batch, in order."""
    with pytest.raises(ValueError) as refused:
        for forms in batch:
            oracles.top_functional(FS_P, forms, h)
    return str(refused.value)


def test_top_functionals_refuse_what_top_functional_refuses(monkeypatch):
    """top_functionals raises the one-matrix oracle's ValueError: on a
    non-characteristic matrix after good ones, whose rows filled the row
    table and the prefix states, on a wrong h-vector in any degree and on
    a short one.  With the characteristic check switched off in both, a
    matrix whose I_n has corank 2, and one whose I_n is a hyperplane but
    whose phi has catalecticant rank 1 in degree 1 (a broken duality),
    are refused with the oracle's message, after good ones."""
    batch = [BLOCKS_A["A1"], BLOCKS_A["A2"]]
    h = list(QA1.hilbert)
    cases = [(batch + [(0b101, 0b101, 0b101, 0b010, 0b010)], h), (batch, h[:-1])]
    cases += [(batch, h[:d] + [h[d] + 1] + h[d + 1:]) for d in range(QA1.n + 1)]
    for case, h_case in cases:
        with pytest.raises(ValueError) as refused:
            top_functionals(FS_P, case, h_case)
        assert str(refused.value) == _oracle_error(case, h_case), (case, h_case)
    corank, duality = (1, 1, 1, 2, 2), (2, 2, 2, 5, 5)
    assert not any(is_characteristic(forms, FS_P) for forms in (corank, duality))
    monkeypatch.setattr(galerig.cohomology, "is_characteristic", lambda forms, fs: True)
    monkeypatch.setattr(oracles, "is_characteristic", lambda forms, fs: True)
    for bad, message in ((corank, "the rows span corank 2 in 21 columns, not 1"),
                         (duality, "ideal is not the inverse system of its top degree: "
                                   "rank 1 against h_1 = 3 in degree 1")):
        assert _oracle_error(batch + [bad], h) == message
        with pytest.raises(ValueError) as refused:
            top_functionals(FS_P, batch + [bad], h)
        assert str(refused.value) == message


def test_two_generators_close_to_gl3():
    # g followed by h sends variable j to the sum of h's forms over the
    # variables in g's form j, which is image(form, h)
    closure, frontier = set(_GENERATORS), list(_GENERATORS)
    while frontier:
        g = frontier.pop()
        for h in _GENERATORS:
            gh = tuple(image(form, h) for form in g)
            if gh not in closure:
                closure.add(gh)
                frontier.append(gh)
    assert closure == set(gl3())


def test_word_tree_covers_gl3():
    # element i = g o h for g its parent and h its generator, h's forms with
    # g substituted in them, and phi o (g o h) = (phi o g) o h
    tree, held = _word_tree()
    elements = [(X, Y, Z)]
    for parent, k in tree:
        elements.append(tuple(image(form, elements[parent]) for form in _GENERATORS[k]))
    assert len(elements) == 168 and set(elements) == set(gl3())
    assert held == tuple(elements)
    phi = socle_functional(QA1)
    for (parent, k), g in zip(tree, elements[1:]):
        assert _compose(phi, g, QA1.n) == _compose(_compose(phi, elements[parent], QA1.n),
                                                   _GENERATORS[k], QA1.n)


def test_orbit_is_the_generator_closure():
    rng = random.Random(0)
    for n in range(1, 13):
        width = monomial_count(n)
        for phi in [1, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(6)]:
            orbit = _orbit(phi, n)
            assert len(orbit) == 168 and set(orbit) == oracles.orbit_by_closure(phi, n), (n, phi)


def test_stacked_orbit_table_is_built_once_after_w_chained_fills(monkeypatch):
    """Where a table costs w = monomial_count(n) chained fills, the first w
    fills of a fresh process build no table, the (w + 1)-th builds it,
    later fills reuse it, and every orbit, chained or stacked, is the
    generator closure.  At n = 3 a slot of w = 10 bits is widened to 16
    and unpacked; at n = 10 one of w = 66 bits, wider than struct's
    widest integer, is read off its byte window."""
    for n, width in [(3, 10), (10, 66)]:
        monkeypatch.setattr(galerig.cohomology, "_chained_fills", {})
        _orbit_table.cache_clear()
        assert monomial_count(n) == width
        rng = random.Random(2)
        phis = [1, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(width + 3)]
        for i, phi in enumerate(phis):
            orbit = _orbit(phi, n)
            assert len(orbit) == 168 and set(orbit) == oracles.orbit_by_closure(phi, n), (n, i, phi)
            built = _orbit_table.cache_info()
            assert built.misses == (i >= width) and built.currsize == (i >= width), (n, i)
        assert _orbit_table.cache_info().hits == len(phis) - width - 1
        assert galerig.cohomology._chained_fills == {n: width}
    _orbit_table.cache_clear()


def test_catalecticants_are_the_bitwise_pairings():
    """Cat_0..Cat_(n//2) equal the bitwise pairings, and _ranks, which
    eliminates those and mirrors them, equals the rank of the bitwise
    pairing in every degree d = 0..n."""
    rng = random.Random(1)
    for n in range(1, 13):
        width = monomial_count(n)
        for phi in [1 << (width - 1), (1 << width) - 1] + [rng.getrandbits(width)
                                                           for _ in range(4)]:
            assert (oracles.catalecticants_by_table(phi, n)
                    == [oracles.catalecticant_by_bits(phi, n, d) for d in range(n // 2 + 1)]), \
                (n, phi)
            assert _ranks(phi, n) == oracles.catalecticant_ranks_by_bits(phi, n), (n, phi)
    phi = socle_functional(QA1)
    assert _ranks(phi, QA1.n) == list(QA1.hilbert)


def test_stacked_catalecticant_tables_hold_each_pairing_in_place():
    """One table_image of phi over the stacked tables of n is its
    catalecticants in the degrees d = 0..n // 2, degree after degree, with
    row i of Cat_d at bits o_d + i * w_d..: for random phi with n =
    2..11, the rows sliced off in every degree are the bitwise pairing,
    each degree starts where the one below ends, no bit lies past the last
    row, and the ranks mirrored from them are the bitwise pairings' ranks
    in every degree d = 0..n."""
    rng = random.Random(2)
    for n in range(2, 12):
        width = monomial_count(n)
        for phi in [1, 1 << (width - 1)] + [rng.getrandbits(width) for _ in range(6)]:
            rows = [oracles.catalecticant_by_bits(phi, n, d) for d in range(n // 2 + 1)]
            tables, plan = _catalecticant_tables(n)
            assert len(plan) == len(rows)
            end = 0
            for d, (shifts, mask, w_d) in enumerate(plan):
                assert w_d == monomial_count(n - d) and mask == (1 << w_d) - 1
                assert list(shifts) == [end + i * mask.bit_length()
                                        for i in range(len(rows[d]))], (n, d)
                end += len(rows[d]) * mask.bit_length()
            assert table_image(phi, tables) >> end == 0, n
            assert oracles.catalecticants_by_table(phi, n) == rows, (n, phi)
            assert _ranks(phi, n) == oracles.catalecticant_ranks_by_bits(phi, n), (n, phi)
    with pytest.raises(IndexError):
        _ranks(1 << monomial_count(4), 4)


def test_contraction_is_the_transpose_of_multiplication():
    # bit i of the contraction of the dual basis vector j is bit j of the
    # product of form with monomial i of degree e - 1, for every form 0..7
    # and e <= 26; random functionals pair as psi(form * f) on random f
    rng = random.Random(5)
    for e in range(1, 27):
        width = monomial_count(e)
        for form in range(8):
            products = [times_form(1 << i, e - 1, form) for i in range(monomial_count(e - 1))]
            rows = [0] * width
            for i, product in enumerate(products):
                while product:
                    j = product.bit_length() - 1
                    rows[j] |= 1 << i
                    product ^= 1 << j
            assert [contract_form(1 << j, e, form) for j in range(width)] == rows, (e, form)
            psi, f = rng.getrandbits(width), rng.getrandbits(len(products))
            assert ((contract_form(psi, e, form) & f).bit_count() & 1
                    == (psi & times_form(f, e - 1, form)).bit_count() & 1), (e, form)
            with pytest.raises(IndexError):
                contract_form(psi | 1 << width, e, form)


def test_profile_by_contraction_equals_profile_by_products(key_quotients):
    """invariant_profile reads codim off the ranks of phi's contraction by
    each form; the oracle multiplies by it on the bitwise catalecticants.
    Every functional of every key_range diagram, and seeded random
    functionals for n = 2..12, each profiled against its own catalecticant
    ranks, on which both give the same record or both refuse with
    RuntimeError."""
    functionals = {(q.hilbert, socle_functional(q)) for quotients in key_quotients.values()
                   for q in quotients}
    assert len(functionals) == 210
    for h, phi in functionals:
        n = len(h) - 1
        assert invariant_profile(phi, h) == oracles.profile_by_products(phi, n), (n, phi)
    rng = random.Random(3)
    outcomes = Counter()
    for n in range(2, 13):
        for _ in range(8):
            phi = rng.getrandbits(monomial_count(n))
            try:
                expected = oracles.profile_by_products(phi, n)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="no annihilated degree found"):
                    invariant_profile(phi, _ranks(phi, n))
                outcomes["refused"] += 1
            else:
                assert invariant_profile(phi, _ranks(phi, n)) == expected, (n, phi)
                outcomes["equal"] += 1
    assert outcomes["refused"] and outcomes["equal"], outcomes


def test_profile_refuses_a_functional_with_no_annihilated_degree():
    """phi = 0 pairs to zero in every degree.  phi = 1, the functional of
    x^n, has rank 1 in every degree, and so has its contraction by x, which
    is the functional of x^(n-1): no degree drops below h_d for x.  Both
    are refused with RuntimeError, never a bare StopIteration, by the
    profile and by the oracle."""
    for n in range(2, 7):
        assert oracles.catalecticant_ranks_by_bits(1, n) == [1] * (n + 1)
        assert contract_form(1, n, X) == 1
        for phi in (0, 1):
            with pytest.raises(RuntimeError, match="no annihilated degree found"):
                invariant_profile(phi, oracles.catalecticant_ranks_by_bits(phi, n))
            with pytest.raises(RuntimeError, match="no annihilated degree found"):
                oracles.profile_by_products(phi, n)


def test_profile_refuses_a_functional_beyond_its_degree():
    """A phi with a bit at or above monomial_count(n), outside S_n, is
    refused with IndexError by the range check of its first contraction,
    whatever its bits inside S_n."""
    for n in range(2, 9):
        h = [1] * (n + 1)
        for bit in (monomial_count(n), monomial_count(n) + 7, 8 * monomial_count(n)):
            for low in (0, 1, (1 << monomial_count(n)) - 1):
                with pytest.raises(IndexError):
                    invariant_profile(low | 1 << bit, h)


def test_iso_keys_one_key_per_entry_in_order():
    qa2, qa5 = _quotient("A2"), _quotient("A5")
    assert QA1.n == QB1.n and QA1.hilbert == QB1.hilbert
    phis = [socle_functional(q) for q in (QA1, QB1, QA1, qa2, QB1, qa5, QA1)]
    keys = iso_keys(QA1.n, QA1.hilbert, phis)
    a1, b1, a2 = oracles.scan_iso_key(QA1), oracles.scan_iso_key(QB1), oracles.scan_iso_key(qa2)
    assert a2 == oracles.scan_iso_key(qa5) != a1 != b1
    assert keys == [a1, b1, a1, a2, b1, a2, a1]


def test_shared_key_map_counts_the_pairs_of_unshared_keys(monkeypatch):
    """report's lookup-hit path, which no pentagon class through total 18
    reaches (none has a cross isomorphism), on a synthetic two-member class:
    the orbit representatives' functionals of (2,2,2,1,1), then each of them
    composed with an element of GL(3,2) together with those of (3,1,2,1,1),
    which match none.  Keyed as galerig.cli._class_keys keys a class,
    through one shared map that the last member only looks up in, every
    pair count equals the one from unshared iso_keys per member, and the
    last member fills no orbit."""
    h = h_vector(Q)
    assert h_vector(P) == h

    def representatives_functionals(fs):
        blocks = enumerate_charmats(fs)
        return top_functionals(fs, [blocks[r] for r in sorted(set(orbits(fs, blocks)))], h)

    first = representatives_functionals(FS_Q)
    elements = gl3()
    composed = [_compose(phi, elements[(37 * i + 5) % 168], Q.n) for i, phi in enumerate(first)]
    assert composed != first
    members = [first, composed + representatives_functionals(FS_P)]

    def pair_count(keys):
        left, right = (Counter(k) for k in keys)
        return sum(count * right[key] for key, count in left.items())

    unshared = [iso_keys(Q.n, h, phis) for phis in members]
    known = {}
    shared = [iso_keys(Q.n, h, members[0], known)]
    orbit_calls = []
    monkeypatch.setattr(galerig.cohomology, "_orbit",
                        lambda *args: orbit_calls.append(args) or _orbit(*args))
    shared.append(iso_keys(Q.n, h, members[1], known, fill=False))
    assert orbit_calls == []
    # every composed functional is found, every one of (3,1,2,1,1) is not
    assert shared[1] == unshared[1][:len(first)] + [None] * (len(members[1]) - len(first))
    assert shared[0] == unshared[0]
    assert pair_count(shared) == pair_count(unshared) >= len(first)


def test_socle_functional_inverse_system_is_the_ideal(key_range):
    """Gorenstein duality, which makes the keys complete: I_d = {f in S_d :
    phi(f * S_(n-d)) = 0} in every degree d = 0..n."""
    quotients = {id(q): q for left, right in key_range for q in left + right}
    for q in quotients.values():
        phi = socle_functional(q)
        for d in range(q.n + 1):
            assert oracles.annihilator(phi, q.n, d) == oracles.echelon_by_scan(q.ideal.rows(d))[1]


def test_annihilator_rows_are_the_saturated_ideal(key_range):
    """annihilator_rows(phi, n), the ideal that galerig cohomology --json
    prints, is in every degree d <= n the oracle's annihilator of phi and
    the saturated ideal, both under lowest-bit pivots, and full in degree
    n + 1, on every quotient of every key_range diagram."""
    quotients = {id(q): q for left, right in key_range for q in left + right}
    for q in quotients.values():
        phi = quotient_functional(q)
        rows = annihilator_rows(phi, q.n)
        assert len(rows) == q.n + 2
        for d in range(q.n + 1):
            expected = oracles.echelon_by_scan(q.ideal.rows(d))[1]
            assert rows[d] == oracles.annihilator(phi, q.n, d) == expected, (q.n, d)
        assert rows[q.n + 1] == [1 << c for c in range(monomial_count(q.n + 1))]


def test_find_graded_iso_returns_the_search_witness():
    quotients = _all_quotients((3, 1, 2, 1, 1))
    witnesses = oracles.search_iso_witnesses(quotients, quotients)
    assert sum(w is not None for row in witnesses for w in row) == 59
    for qa, row in zip(quotients, witnesses):
        for qb, witness in zip(quotients, row):
            assert find_graded_iso(qa, qb) == witness


def test_socle_functional_refuses_a_broken_duality():
    # one degree-2 row moved off the ideal: same I_n, dimensions and
    # socle functional, but I_2 is no longer the inverse system of I_n
    spans = [list(QA1.ideal.rows(d)) for d in range(QA1.n + 2)]
    pivots = {row.bit_length() - 1 for row in QA1.ideal.rows(2)}
    free = next(c for c in range(6) if c not in pivots)
    spans[2][0] ^= 1 << free
    broken = GradedQuotient(n=QA1.n, ideal=GradedSubspace.from_spans(spans),
                            hilbert=QA1.hilbert)
    assert broken.ideal.rows(QA1.n) == QA1.ideal.rows(QA1.n)
    with pytest.raises(ValueError, match="degree 2"):
        socle_functional(broken)
    # find_graded_iso reads the functionals off I_n alone: the identity
    # matches them, and the certification against the full ideals refuses it
    with pytest.raises(RuntimeError):
        find_graded_iso(QA1, broken)


def test_find_graded_iso_certifies_its_witness(monkeypatch):
    # a socle-functional match that the full ideals reject is not returned
    import galerig.cohomology

    phi = socle_functional(QA1)
    monkeypatch.setattr(galerig.cohomology, "_chained_orbit", lambda *args: [phi] * 168)
    with pytest.raises(RuntimeError):
        find_graded_iso(QA1, QB1)


# ---------------------------------------------------------------------------
# structural invariants


def test_poincare_pairing_nondegenerate():
    for label in ("A1", "A21", "B1", "B17"):
        assert poincare_nondegenerate(_quotient(label))


def test_top_degree_component_full():
    from galerig.gf2 import monomial_count

    assert QA1.ideal.dimension(6) == monomial_count(6) == 28
