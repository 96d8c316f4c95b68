"""Loaders for the bundled reference tables: the two 21-element
characteristic-matrix lists, the ideal generator tables, and the
codimension/order tables they induce."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


def _load(name: str):
    with resources.files("galerig.data").joinpath(name).open("r") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def matrix_lists() -> dict:
    """{"A": [...], "B": [...]}: 21 completion blocks each, as row strings."""
    return _load("paper_matrices.json")


@lru_cache(maxsize=None)
def ideal_tables() -> tuple:
    """Rows of the two generator tables; each row carries the matrix labels
    that share the ideal and the generator strings verbatim."""
    return tuple(_load("paper_ideals.json"))


@lru_cache(maxsize=None)
def profile_tables() -> dict:
    """The four codim/ord tables keyed by representative row label, plus the
    fixed column order of linear forms."""
    return _load("paper_profiles.json")


def label_blocks(family: str) -> dict[str, tuple[int, ...]]:
    """Map "A1".."A21" (or B) to the matrix as its tuple of leading-facet
    forms (see galerig.charmat)."""
    from .charmat import forms_from_rows

    rows = matrix_lists()[family]
    return {f"{family}{i + 1}": forms_from_rows(r) for i, r in enumerate(rows)}
