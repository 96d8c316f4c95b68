"""Comparison of the artifacts a report computed against the bundled
reference tables.  The report counts each reference polytope's matrices
off its canonical tuples and never lists them, so this module enumerates
each list itself, on the report's face structure, diffs it against the
published one and checks the report's count against its length; it reads
the socle functional of each published block on the same face
structures, one cohomology.top_functionals call per family against the
polytope's h-vector (betti.h_vector), so every block gets the checks that
the report's own keys get: characteristic, I_n of corank 1 and its
catalecticant ranks equal to the h-vector, which make its ideal I equal
to Ann(phi).  It builds no quotient, of a block or of a row: every check
below reads a functional or a saturated ideal itself (a
gf2.GradedSubspace), and its findings are the plain JSON record that
report --verify prints.

The module also loads the tables from galerig.data: the two 21-block
matrix lists, the ideal generator tables and the codim/ord tables they
induce.  Each JSON file is read once per process, and each family's
blocks are converted to forms once (label_blocks), however many checks
read them.

A published ideal row matches in two steps, on the ideal J that its
generators of degree <= n + 1 generate, saturated once per row
(cohomology._saturated_ideal).  Containment: each label's phi vanishes
on J_n, the span of g * u over the generators g of degree <= n and the
monomials u of degree n - deg g, so every generator lies in Ann(phi), and
so does J.  Dimensions: dim (S/J)_d = h_d for d <= n and J is full in
degree n + 1, as Ann(phi) is.  Containment and equal dimensions give J =
Ann(phi) = I, the matrix's ideal; the paper's generators are the side
independent of galerig's own.  h is the polytope's h-vector, passed in,
never read off J, so a row that fails to match is measured against the
dimensions it should have.

The verdict policy is deliberately asymmetric: matrix-list, matrix-count
or generator-table mismatches fail verification, while codim/ord cells
may disagree with the reference tables provided an independent
computation path agrees with the report's value (printed tables can
carry typos).  The value is the one the profile command prints,
invariant_profile of the block's socle functional, by contraction.  The
row's saturated ideal certifies it by multiplication on the ideal
itself (cohomology.codim and cohomology.order): codim from the
annihilator dimension, order from the least power in the ideal.  That
ideal is the published generators' when they match, and otherwise, an
unparseable row included, the one the block's own generators (the
products over the minimal non-faces) generate.  The final verdict rests
on the isomorphism keys of galerig.cohomology, which Gorenstein duality
makes a complete invariant, and never consults these profiles.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .betti import h_vector
from .charmat import enumerate_charmats, forms_from_rows, row_strings
from .cohomology import (
    LINEAR_FORM_NAMES,
    LINEAR_FORMS,
    _saturated_ideal,
    codim,
    generators,
    invariant_profile,
    order,
    top_functionals,
)
from .gale import FaceStructure, GaleDiagram
from .gf2 import GradedSubspace, format_poly, monomial_count, parse_poly

# Neither is called here: no block's quotient is built, and the report's
# face structures are used.  They stay importable only because the
# benchmark tracer wraps galerig.verify.quotient_presentation and
# galerig.verify.face_structure.
from .cohomology import quotient_presentation  # noqa: F401 (tracer)
from .gale import face_structure  # noqa: F401 (tracer)

WEIGHTS_A = (3, 1, 2, 1, 1)
WEIGHTS_B = (2, 2, 2, 1, 1)


@lru_cache(maxsize=None)
def _load(name: str):
    """A bundled JSON table, read once per process."""
    return json.loads(resources.files("galerig.data").joinpath(name).read_text())


def matrix_lists() -> dict:
    """{"A": [...], "B": [...]}: 21 completion blocks each, as row strings."""
    return _load("paper_matrices.json")


def ideal_tables() -> tuple:
    """Rows of the two generator tables; each row carries the matrix labels
    that share the ideal and the generator strings verbatim."""
    return tuple(_load("paper_ideals.json"))


def profile_tables() -> dict:
    """The four codim/ord tables keyed by representative row label, plus the
    fixed column order of linear forms."""
    return _load("paper_profiles.json")


@lru_cache(maxsize=None)
def label_blocks(family: str) -> dict[str, tuple[int, ...]]:
    """Map "A1".."A21" (or B) to the matrix as its tuple of leading-facet
    forms (see galerig.charmat), converted once per process: every caller
    shares the one dict, and none mutates it."""
    return {f"{family}{i + 1}": forms_from_rows(r) for i, r in enumerate(matrix_lists()[family])}


def _compare_matrices(family: str, fs: FaceStructure, count: int) -> dict:
    """Diff the matrix list of a family, enumerated on the report's face
    structure, against the published one; the family is ok only when they
    agree and the report's matrix count is the list's length."""
    computed = enumerate_charmats(fs)
    listed = list(label_blocks(family).values())
    listed_set, computed_set = set(listed), set(computed)
    missing = [row_strings(f) for f in listed if f not in computed_set]
    extra = [row_strings(f) for f in computed if f not in listed_set]
    return {"family": family, "matched": len(listed_set & computed_set), "missing": missing,
            "extra": extra, "ok": not missing and not extra and count == len(computed)}


def _functionals_by_label(family: str, fs: FaceStructure, h: tuple[int, ...]) -> dict[str, int]:
    """The socle functional of each published block of a family, labelled,
    from one top_functionals call on the report's face structure, which
    checks every block.  The report keys its orbit representatives only,
    so every published block is read here, one absent from the enumerated
    list too, which already fails the matrix comparison."""
    blocks = label_blocks(family)
    return dict(zip(blocks, top_functionals(fs, list(blocks.values()), h)))


def _row_ideal(gens: Sequence[tuple[int, int]], n: int) -> GradedSubspace:
    """The ideal J of the (degree, vec) generators saturated up to degree
    n + 1: the generators above n + 1 lie in every ideal full in degree
    n + 1, as J must be."""
    return _saturated_ideal([g for g in gens if g[0] <= n + 1], n + 1)


def _is_annihilator(ideal: GradedSubspace, phis: Sequence[int], h: tuple[int, ...]) -> bool:
    """Whether the ideal J, stored through degree n + 1 with n = len(h) - 1,
    is Ann(phi) for every phi: phi vanishes on J_n (containment, module
    docstring), dim (S/J)_d = h_d for d <= n and J is full in degree
    n + 1."""
    n = len(h) - 1
    contained = not any((phi & row).bit_count() & 1 for phi in phis for row in ideal.rows(n))
    return (contained and ideal.dimension(n + 1) == monomial_count(n + 1)
            and all(monomial_count(d) - ideal.dimension(d) == h_d for d, h_d in enumerate(h)))


def _check_ideal_row(row: dict, phis: dict[str, int], fs: FaceStructure,
                     h: tuple[int, ...]) -> tuple[dict, GradedSubspace]:
    """Compare one published ideal row with the functionals of its labels,
    read on fs, and return its record with the saturated ideal that
    certifies its profile cells: the row's own when it matches, else the
    one its first label's generators give.  A row that does not parse
    cannot fail; it records the parse error and those generators in its
    place."""
    record = {"table": row["table"], "labels": list(row["labels"]), "unparseable": False,
              "bad_token": None, "matches": None, "computed_generators": None}
    block = label_blocks(row["table"])[row["labels"][0]]
    try:
        gens = [parse_poly(text) for text in row["generators"]]
    except ValueError as err:
        own = generators(fs, block)
        return ({**record, "unparseable": True, "bad_token": str(err),
                 "computed_generators": [format_poly(g) for g in own], "ok": True},
                _row_ideal(own, fs.n))
    # a row's labels share one ideal: saturate the row once
    ideal = _row_ideal(gens, fs.n)
    if _is_annihilator(ideal, [phis[label] for label in row["labels"]], h):
        return {**record, "matches": True, "ok": True}, ideal
    return {**record, "matches": False, "ok": False}, _row_ideal(generators(fs, block), fs.n)


def _check_profiles(socle: dict[str, tuple[int, tuple[int, ...]]],
                    ideals: dict[str, GradedSubspace]) -> list[dict]:
    """Published codim/ord cells that differ from their blocks' profiles,
    each profile read off the block's (phi, h) in socle."""
    tables = profile_tables()
    forms = tables["forms"]
    assert tuple(forms) == LINEAR_FORM_NAMES
    table_names = ("codim_A", "ord_A", "codim_B", "ord_B")
    # the codim and ord tables of a family share their rows: one profile each
    labels = {label for table_name in table_names for label in tables[table_name]}
    profiles = {label: invariant_profile(*socle[label]) for label in sorted(labels)}
    discrepancies = []
    for table_name in table_names:
        kind = table_name.split("_")[0]  # "codim" or "ord", a profile field
        for row_label, paper_values in tables[table_name].items():
            for col, (paper_v, got) in enumerate(zip(paper_values, profiles[row_label][kind])):
                if paper_v == got:
                    continue
                # got is read off the top functional; the row's saturated
                # ideal certifies it independently
                gamma = LINEAR_FORMS[col]
                certified = (order if kind == "ord" else codim)(gamma, ideals[row_label]) == got
                discrepancies.append({
                    "table": table_name, "row": row_label, "column": forms[col],
                    "paper_value": paper_v, "computed_value": got, "certified": certified,
                })
    return discrepancies


def run_verification(iso_found: int, classes: dict) -> dict:
    """Diff the matrix lists of the two reference polytopes, the report's
    matrix counts, and the published ideals and profiles of their blocks
    against the bundled tables, and return the record that a report prints
    as its "verification" object.

    classes[weights] = (fs, {representative: orbit size}) is the face
    structure and orbits the report classified (cli.classify); each list is
    enumerated on fs, and the socle functionals of the 21 + 21 published
    blocks are read on those face structures.  iso_found is the number of
    cross pairs of matrices with equal isomorphism keys that the report
    counted among them.

    The record holds "matrices", the diff of each family's list ("A", "B"),
    not ok when the report's count (the sum of its orbit sizes) is not the
    list's length either; "ideal_rows", one entry per published ideal row;
    "profile_discrepancies", one entry per published codim/ord cell that
    differs from the computed profile, with whether the independent path
    certifies the computed value; iso_found, "iso_pairs" (the product of
    the report's two counts); and "passed", true when every list and row
    is ok, every discrepancy certified and no cross pair isomorphic.
    """
    weights = {"A": WEIGHTS_A, "B": WEIGHTS_B}
    families = {family: classes[w] for family, w in weights.items()}
    counts = {family: sum(sizes.values()) for family, (_, sizes) in families.items()}
    comparisons = {family: _compare_matrices(family, fs, counts[family])
                   for family, (fs, _) in families.items()}
    h = {family: h_vector(GaleDiagram(w)) for family, w in weights.items()}
    phis = {family: _functionals_by_label(family, fs, h[family])
            for family, (fs, _) in families.items()}
    ideal_rows, ideals = [], {}
    for row in ideal_tables():
        family = row["table"]
        record, ideal = _check_ideal_row(row, phis[family], families[family][0], h[family])
        ideal_rows.append(record)
        ideals.update(dict.fromkeys(row["labels"], ideal))
    socle = {label: (phi, h[family]) for family in phis for label, phi in phis[family].items()}
    discrepancies = _check_profiles(socle, ideals)
    return {
        "matrices": comparisons,
        "ideal_rows": ideal_rows,
        "profile_discrepancies": discrepancies,
        "iso_found": iso_found,
        "iso_pairs": counts["A"] * counts["B"],
        "passed": (all(c["ok"] for c in comparisons.values())
                   and all(r["ok"] for r in ideal_rows)
                   and all(d["certified"] for d in discrepancies)
                   and iso_found == 0),
    }
