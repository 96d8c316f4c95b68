"""Comparison of the artifacts a report computed against the bundled
reference tables.  It diffs the report's own matrix lists, re-enumerates
nothing, builds the quotient of each published block on the report's face
structures (the report itself keys matrices without quotients), and
returns its findings as the plain JSON record that report --verify prints.

The verdict policy is deliberately asymmetric: matrix-list or generator-table
mismatches fail verification, while codim/ord cells may disagree with the
reference tables provided an independent computation path agrees with the
report's value (printed tables can carry typos).  The value is the one the
profile command prints, invariant_profile of the block's socle
functional; that functional is read off the built quotient's own I_n, not
eliminated again, and passes the same rank check against the quotient's
dimensions as top_functional's (check_inverse_system).  The saturated
quotient certifies the value: codim from the annihilator dimension, order
from the least power in the ideal.  The final verdict rests on the isomorphism
keys of galerig.cohomology, which Gorenstein duality makes a complete
invariant, and never consults these profiles.
"""

from __future__ import annotations

from . import fixtures
# Nothing here calls enumerate_charmats or face_structure: the report's lists
# are diffed.  Both stay importable only because the benchmark tracer wraps
# galerig.verify.<name> for each.
from .charmat import enumerate_charmats, row_strings  # noqa: F401 (tracer)
from .cohomology import (
    GradedQuotient,
    LINEAR_FORM_NAMES,
    LINEAR_FORMS,
    check_inverse_system,
    codim,
    ideal_equal,
    invariant_profile,
    order,
    quotient_functional,
    quotient_presentation,
)
from .gale import FaceStructure, face_structure  # noqa: F401 (tracer)
from .gf2 import format_poly, parse_poly

WEIGHTS_A = (3, 1, 2, 1, 1)
WEIGHTS_B = (2, 2, 2, 1, 1)


def _compare_matrices(family: str, computed: list[tuple[int, ...]]) -> dict:
    """Diff the report's matrix list of a family against the published one."""
    listed = list(fixtures.label_blocks(family).values())
    listed_set, computed_set = set(listed), set(computed)
    missing = [row_strings(f) for f in listed if f not in computed_set]
    extra = [row_strings(f) for f in computed if f not in listed_set]
    return {"family": family, "matched": len(listed_set & computed_set),
            "missing": missing, "extra": extra, "ok": not missing and not extra}


def _quotients_by_label(family: str, fs: FaceStructure) -> dict[str, GradedQuotient]:
    """The quotient of each published block of a family, labelled, built on
    the report's face structure.  The report keys its matrices without
    building quotients, so every published block is built here, one absent
    from the report's list too, which already fails the matrix comparison."""
    return {label: quotient_presentation(fs, block)
            for label, block in fixtures.label_blocks(family).items()}


def _check_ideal_row(row: dict, quotients: dict[str, GradedQuotient]) -> dict:
    """Compare one published ideal row with the quotients of its labels.  A
    row that does not parse cannot fail; it records the parse error and the
    computed generators in its place."""
    record = {"table": row["table"], "labels": list(row["labels"]), "unparseable": False,
              "bad_token": None, "matches": None, "computed_generators": None}
    try:
        gens = [parse_poly(text) for text in row["generators"]]
    except ValueError as err:
        rep = quotients[row["labels"][0]]
        return {**record, "unparseable": True, "bad_token": str(err),
                "computed_generators": [format_poly(g) for g in rep.generators], "ok": True}
    # a row's labels share one ideal: saturate the row once
    first, *rest = (quotients[lab] for lab in row["labels"])
    matches = ideal_equal(gens, first) and all(q.ideal == first.ideal for q in rest)
    return {**record, "matches": matches, "ok": matches}


def _check_profiles(labelled: dict[str, dict[str, GradedQuotient]]) -> list[dict]:
    """Published codim/ord cells that differ from their blocks' profiles."""
    tables = fixtures.profile_tables()
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
        profiles[label] = invariant_profile(phi, q.n)
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


def run_verification(iso_found: int, matrices: dict) -> dict:
    """Diff the report's matrix lists of the two reference polytopes, and
    the quotients of the published blocks, against the bundled tables, and
    return the record that a report prints as its "verification" object.

    matrices[weights] = (fs, blocks) is the face structure and matrix list
    the report compared; the 21 + 21 published blocks' quotients are built
    on those face structures.  iso_found is the number of cross pairs of
    matrices with equal isomorphism keys that the report counted among them.

    The record holds "matrices", the diff of each family's list ("A", "B");
    "ideal_rows", one entry per published ideal row; "profile_discrepancies",
    one entry per published codim/ord cell that differs from the computed
    profile, with whether the independent path certifies the computed value;
    iso_found, "iso_pairs" (len(blocks_a) * len(blocks_b)); and "passed",
    true when every list and row is ok, every discrepancy certified and no
    cross pair isomorphic.
    """
    (fs_a, blocks_a), (fs_b, blocks_b) = matrices[WEIGHTS_A], matrices[WEIGHTS_B]
    comparisons = {"A": _compare_matrices("A", blocks_a), "B": _compare_matrices("B", blocks_b)}
    labelled = {"A": _quotients_by_label("A", fs_a), "B": _quotients_by_label("B", fs_b)}
    ideal_rows = [_check_ideal_row(row, labelled[row["table"]]) for row in fixtures.ideal_tables()]
    discrepancies = _check_profiles(labelled)
    return {
        "matrices": comparisons,
        "ideal_rows": ideal_rows,
        "profile_discrepancies": discrepancies,
        "iso_found": iso_found,
        "iso_pairs": len(blocks_a) * len(blocks_b),
        "passed": (all(c["ok"] for c in comparisons.values())
                   and all(r["ok"] for r in ideal_rows)
                   and all(d["certified"] for d in discrepancies)
                   and iso_found == 0),
    }
