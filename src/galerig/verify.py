"""Comparison of the artifacts a report computed against the bundled
reference tables.  The report counts each reference polytope's matrices
off its canonical tuples and never lists them, so this module enumerates
each list itself, on the report's face structure, diffs it against the
published one and checks the report's count against its length; it
builds the quotient of each published block on the same face structures
(the report itself keys matrices without quotients), and returns its
findings as the plain JSON record that report --verify prints.

The module also loads the tables from galerig.data: the two 21-block
matrix lists, the ideal generator tables and the codim/ord tables they
induce.  Each JSON file is read once per process, and each family's
blocks are converted to forms once (label_blocks), however many checks
read them.

The verdict policy is deliberately asymmetric: matrix-list, matrix-count
or generator-table mismatches fail verification, while codim/ord cells
may disagree with the reference tables provided an independent
computation path agrees with the report's value (printed tables can
carry typos).  The value is the one the profile command prints,
invariant_profile of the block's socle functional; that functional is read off the built quotient's own I_n, not
eliminated again, and passes the same rank check against the quotient's
dimensions as each of top_functionals' (check_inverse_system).  The saturated
quotient certifies the value: codim from the annihilator dimension, order
from the least power in the ideal.  The final verdict rests on the isomorphism
keys of galerig.cohomology, which Gorenstein duality makes a complete
invariant, and never consults these profiles.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .charmat import enumerate_charmats, forms_from_rows, row_strings
from .cohomology import (
    GradedQuotient,
    LINEAR_FORM_NAMES,
    LINEAR_FORMS,
    check_inverse_system,
    codim,
    generators,
    ideal_equal,
    invariant_profile,
    order,
    quotient_functional,
    quotient_presentation,
)
# face_structure is not called here: the report's face structures are
# used.  It stays importable only because the benchmark tracer wraps
# galerig.verify.face_structure.
from .gale import FaceStructure, face_structure  # noqa: F401 (tracer)
from .gf2 import format_poly, parse_poly

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


def _quotients_by_label(family: str, fs: FaceStructure) -> dict[str, GradedQuotient]:
    """The quotient of each published block of a family, labelled, built on
    the report's face structure.  The report keys its matrices without
    building quotients, so every published block is built here, one absent
    from the enumerated list too, which already fails the matrix comparison."""
    return {label: quotient_presentation(fs, block)
            for label, block in label_blocks(family).items()}


def _check_ideal_row(row: dict, quotients: dict[str, GradedQuotient], fs: FaceStructure) -> dict:
    """Compare one published ideal row with the quotients of its labels,
    built on fs.  A row that does not parse cannot fail; it records the
    parse error and its first label's generators in its place."""
    record = {"table": row["table"], "labels": list(row["labels"]), "unparseable": False,
              "bad_token": None, "matches": None, "computed_generators": None}
    try:
        gens = [parse_poly(text) for text in row["generators"]]
    except ValueError as err:
        block = label_blocks(row["table"])[row["labels"][0]]
        return {**record, "unparseable": True, "bad_token": str(err),
                "computed_generators": [format_poly(g) for g in generators(fs, block)], "ok": True}
    # a row's labels share one ideal: saturate the row once
    first, *rest = (quotients[lab] for lab in row["labels"])
    matches = ideal_equal(gens, first) and all(q.ideal == first.ideal for q in rest)
    return {**record, "matches": matches, "ok": matches}


def _check_profiles(labelled: dict[str, dict[str, GradedQuotient]]) -> list[dict]:
    """Published codim/ord cells that differ from their blocks' profiles."""
    tables = profile_tables()
    forms = tables["forms"]
    assert tuple(forms) == LINEAR_FORM_NAMES
    table_names = ("codim_A", "ord_A", "codim_B", "ord_B")
    quotients = {**labelled["A"], **labelled["B"]}
    # the codim and ord tables of a family share their rows: one profile each
    labels = {label for table_name in table_names for label in tables[table_name]}
    profiles = {}
    for label in sorted(labels):
        q = quotients[label]
        phi = quotient_functional(q)
        check_inverse_system(phi, q.n, q.hilbert)
        profiles[label] = invariant_profile(phi, q.hilbert)
    discrepancies = []
    for table_name in table_names:
        kind = table_name.split("_")[0]  # "codim" or "ord", a profile field
        for row_label, paper_values in tables[table_name].items():
            q = quotients[row_label]
            for col, (paper_v, got) in enumerate(zip(paper_values, profiles[row_label][kind])):
                if paper_v == got:
                    continue
                # got is read off the top functional; the saturated
                # quotient certifies it independently
                gamma = LINEAR_FORMS[col]
                certified = (order if kind == "ord" else codim)(gamma, q) == got
                discrepancies.append({
                    "table": table_name, "row": row_label, "column": forms[col],
                    "paper_value": paper_v, "computed_value": got, "certified": certified,
                })
    return discrepancies


def run_verification(iso_found: int, classes: dict) -> dict:
    """Diff the matrix lists of the two reference polytopes, the report's
    matrix counts, and the quotients of the published blocks against the
    bundled tables, and return the record that a report prints as its
    "verification" object.

    classes[weights] = (fs, {representative: orbit size}) is the face
    structure and orbits the report classified (cli.classify); each list is
    enumerated on fs, and the 21 + 21 published blocks' quotients are built
    on those face structures.  iso_found is the number of cross pairs of
    matrices with equal isomorphism keys that the report counted among them.

    The record holds "matrices", the diff of each family's list ("A", "B"),
    not ok when the report's count (the sum of its orbit sizes) is not the
    list's length either; "ideal_rows", one entry per published ideal row;
    "profile_discrepancies", one entry per published codim/ord cell that
    differs from the computed profile, with whether the independent path
    certifies the computed value; iso_found, "iso_pairs" (the product of
    the report's two counts); and "passed", true when every list and row
    is ok, every discrepancy certified and no cross pair isomorphic.
    """
    families = {"A": classes[WEIGHTS_A], "B": classes[WEIGHTS_B]}
    counts = {family: sum(sizes.values()) for family, (_, sizes) in families.items()}
    comparisons = {family: _compare_matrices(family, fs, counts[family])
                   for family, (fs, _) in families.items()}
    labelled = {family: _quotients_by_label(family, fs) for family, (fs, _) in families.items()}
    ideal_rows = [_check_ideal_row(row, labelled[row["table"]], families[row["table"]][0])
                  for row in ideal_tables()]
    discrepancies = _check_profiles(labelled)
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
