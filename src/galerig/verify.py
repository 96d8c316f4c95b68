"""Comparison of the artifacts a report computed against the bundled
reference tables, with a typed discrepancy report.  It diffs the report's own
matrix lists and quotients and recomputes nothing the report holds.

The verdict policy is deliberately asymmetric: matrix-list or generator-table
mismatches fail verification, while codim/ord cells may disagree with the
reference tables provided an independent computation path agrees with the
report's value (printed tables can carry typos).  The final verdict rests on
the isomorphism keys of galerig.cohomology, which Gorenstein duality makes a
complete invariant, and never consults these profiles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import fixtures
# Nothing here calls enumerate_charmats or face_structure: the report's lists
# are diffed.  Both stay importable only because the benchmark tracer wraps
# galerig.verify.<name> for each.
from .charmat import enumerate_charmats, row_strings  # noqa: F401 (tracer)
from .cohomology import (
    GradedQuotient,
    LINEAR_FORM_NAMES,
    codim_via_annihilator,
    ideal_equal,
    invariant_profile,
    order_via_quotient_maps,
    quotient_presentation,
    LINEAR_FORMS,
)
from .gale import FaceStructure, face_structure  # noqa: F401 (tracer)
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
        return {**asdict(self), "ok": self.ok}


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
        return {**asdict(self), "ok": self.ok}


@dataclass
class ProfileDiscrepancy:
    table: str
    row: str
    column: str
    paper_value: int
    computed_value: int
    certified: bool

    def to_json(self) -> dict:
        return asdict(self)


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


def _compare_matrices(family: str, computed: list[tuple[int, ...]]) -> MatrixComparison:
    """Diff the report's matrix list of a family against the published one."""
    listed = list(fixtures.label_blocks(family).values())
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
    looked up in built, the report's quotients by matrix, and built on fs
    only for a published block missing from the report's list, which already
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
                # got comes from invariant_profile (order and codim); the
                # other path certifies it independently
                gamma = LINEAR_FORMS[col]
                if attr == "orders":
                    certified = order_via_quotient_maps(gamma, q) == got
                else:
                    certified = codim_via_annihilator(gamma, q) == got
                discrepancies.append(ProfileDiscrepancy(
                    table=table_name, row=row_label, column=forms[col],
                    paper_value=paper_v, computed_value=got, certified=certified,
                ))
    return discrepancies


def run_verification(iso_found: int, matrices: dict, quotients: dict) -> VerificationReport:
    """Diff the report's matrix lists and quotients of the two reference
    polytopes against the bundled tables.

    matrices[weights] = (fs, blocks) is the face structure and matrix list
    the report compared, and quotients[weights][forms] the quotient it built
    for each of those matrices; the published blocks are looked up there.
    iso_found is the number of cross pairs with equal isomorphism keys that
    the report counted among them, and iso_pairs the number of pairs it
    compared, len(blocks_a) * len(blocks_b).
    """
    (fs_a, blocks_a), (fs_b, blocks_b) = matrices[WEIGHTS_A], matrices[WEIGHTS_B]
    comparisons = {"A": _compare_matrices("A", blocks_a), "B": _compare_matrices("B", blocks_b)}
    qa = _quotients_by_label("A", fs_a, quotients[WEIGHTS_A])
    qb = _quotients_by_label("B", fs_b, quotients[WEIGHTS_B])
    ideal_rows = _check_ideal_tables(qa, qb)
    discrepancies = _check_profiles(qa, qb)
    return VerificationReport(
        matrices=comparisons,
        ideal_rows=ideal_rows,
        discrepancies=discrepancies,
        iso_found=iso_found,
        iso_pairs=len(blocks_a) * len(blocks_b),
    )
