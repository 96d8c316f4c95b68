"""Comparison of every computed artifact against the bundled reference
tables, with a typed discrepancy report.

The verdict policy is deliberately asymmetric: matrix-list or generator-table
mismatches fail verification, while codim/ord cells may disagree with the
reference tables provided two independent computation paths agree with each
other (printed tables can carry typos).  The final verdict rests on the
isomorphism keys of galerig.cohomology, which Gorenstein duality makes a
complete invariant, and never consults these profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fixtures
from .charmat import enumerate_charmats, row_strings
from .cohomology import (
    GradedQuotient,
    LINEAR_FORM_NAMES,
    codim,
    codim_via_annihilator,
    ideal_equal,
    invariant_profile,
    order,
    order_via_quotient_maps,
    quotient_presentation,
    LINEAR_FORMS,
)
from .gale import GaleDiagram, FaceStructure, face_structure
from .gf2 import format_poly, parse_poly

WEIGHTS_A = (3, 1, 2, 1, 1)
WEIGHTS_B = (2, 2, 2, 1, 1)


@dataclass
class MatrixComparison:
    family: str
    matched: int
    missing: list[list[str]] = field(default_factory=list)
    extra: list[list[str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "matched": self.matched,
            "missing": self.missing,
            "extra": self.extra,
            "ok": self.ok,
        }


@dataclass
class IdealRowResult:
    table: str
    labels: list[str]
    unparseable: bool
    bad_token: str | None = None
    matches: bool | None = None
    computed_generators: list[str] | None = None

    @property
    def ok(self) -> bool:
        return self.unparseable or bool(self.matches)

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "labels": self.labels,
            "unparseable": self.unparseable,
            "bad_token": self.bad_token,
            "matches": self.matches,
            "computed_generators": self.computed_generators,
            "ok": self.ok,
        }


@dataclass
class ProfileDiscrepancy:
    table: str
    row: str
    column: str
    paper_value: int
    computed_value: int
    certified: bool

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "row": self.row,
            "column": self.column,
            "paper_value": self.paper_value,
            "computed_value": self.computed_value,
            "certified": self.certified,
        }


@dataclass
class VerificationReport:
    matrices: dict[str, MatrixComparison]
    ideal_rows: list[IdealRowResult]
    discrepancies: list[ProfileDiscrepancy]
    iso_found: int
    iso_pairs: int

    @property
    def passed(self) -> bool:
        return (
            all(c.ok for c in self.matrices.values())
            and all(r.ok for r in self.ideal_rows)
            and all(d.certified for d in self.discrepancies)
            and self.iso_found == 0
        )

    def to_json(self) -> dict:
        return {
            "matrices": {fam: c.to_json() for fam, c in sorted(self.matrices.items())},
            "ideal_rows": [r.to_json() for r in self.ideal_rows],
            "profile_discrepancies": [d.to_json() for d in self.discrepancies],
            "iso_found": self.iso_found,
            "iso_pairs": self.iso_pairs,
            "passed": self.passed,
        }


def _compare_matrices(family: str, fs: FaceStructure) -> MatrixComparison:
    listed = list(fixtures.label_blocks(family).values())
    computed = enumerate_charmats(fs)
    listed_set, computed_set = set(listed), set(computed)
    return MatrixComparison(
        family=family,
        matched=len(listed_set & computed_set),
        missing=[row_strings(f) for f in listed if f not in computed_set],
        extra=[row_strings(f) for f in computed if f not in listed_set],
    )


def _quotients_by_label(family: str, fs: FaceStructure,
                        built: dict[tuple[int, ...], GradedQuotient]) -> dict[str, GradedQuotient]:
    """The quotient of each published block of a family, labelled.  It is
    looked up in built, the report's quotients by matrix, and built only for
    a published block that the enumeration did not produce, which already
    fails the matrix comparison."""
    return {label: built[block] if block in built else quotient_presentation(fs, block)
            for label, block in fixtures.label_blocks(family).items()}


def _check_ideal_tables(qa, qb) -> list[IdealRowResult]:
    results = []
    for row in fixtures.ideal_tables():
        quotients = qa if row["table"] == "A" else qb
        try:
            gens = [parse_poly(text) for text in row["generators"]]
        except ValueError as err:
            rep = quotients[row["labels"][0]]
            results.append(IdealRowResult(
                table=row["table"],
                labels=list(row["labels"]),
                unparseable=True,
                bad_token=str(err),
                computed_generators=[format_poly(g) for g in rep.generators],
            ))
            continue
        matches = all(ideal_equal(gens, quotients[lab]) for lab in row["labels"])
        results.append(IdealRowResult(
            table=row["table"], labels=list(row["labels"]),
            unparseable=False, matches=matches,
        ))
    return results


def _check_profiles(qa, qb) -> list[ProfileDiscrepancy]:
    tables = fixtures.profile_tables()
    forms = tables["forms"]
    assert tuple(forms) == LINEAR_FORM_NAMES
    table_attrs = (("codim_A", "codims"), ("ord_A", "orders"),
                   ("codim_B", "codims"), ("ord_B", "orders"))
    quotients = {**qa, **qb}
    # the codim and ord tables of a family share their rows: one profile each
    labels = {label for table_name, _ in table_attrs for label in tables[table_name]}
    profiles = {label: invariant_profile(quotients[label]) for label in sorted(labels)}
    discrepancies = []
    for table_name, attr in table_attrs:
        for row_label, paper_values in tables[table_name].items():
            q = quotients[row_label]
            computed = list(getattr(profiles[row_label], attr))
            for col, (paper_v, got) in enumerate(zip(paper_values, computed)):
                if paper_v == got:
                    continue
                gamma = LINEAR_FORMS[col]
                if attr == "orders":
                    certified = (order(gamma, q) == got
                                 and order_via_quotient_maps(gamma, q) == got)
                else:
                    certified = (codim(gamma, q) == got
                                 and codim_via_annihilator(gamma, q) == got)
                discrepancies.append(ProfileDiscrepancy(
                    table=table_name, row=row_label, column=forms[col],
                    paper_value=paper_v, computed_value=got, certified=certified,
                ))
    return discrepancies


def run_verification(iso_found: int, quotients: dict) -> VerificationReport:
    """Recompute the matrix lists of the two reference polytopes and diff
    them, with the report's quotients, against the bundled tables.

    quotients[weights][forms] is the quotient the report built for each
    enumerated matrix of the two polytopes; the published blocks are looked
    up there.  iso_found is the number of cross pairs with equal isomorphism
    keys that the caller counted among them.  It stands for the published
    matrices because the verification passes only if the enumerated and
    published lists are equal.
    """
    fs_a = face_structure(GaleDiagram(WEIGHTS_A))
    fs_b = face_structure(GaleDiagram(WEIGHTS_B))
    matrices = {"A": _compare_matrices("A", fs_a), "B": _compare_matrices("B", fs_b)}
    qa = _quotients_by_label("A", fs_a, quotients[WEIGHTS_A])
    qb = _quotients_by_label("B", fs_b, quotients[WEIGHTS_B])
    ideal_rows = _check_ideal_tables(qa, qb)
    discrepancies = _check_profiles(qa, qb)
    return VerificationReport(
        matrices=matrices,
        ideal_rows=ideal_rows,
        discrepancies=discrepancies,
        iso_found=iso_found,
        iso_pairs=len(qa) * len(qb),
    )
