"""Exact rigidity computations for simple polytopes with n+3 facets given by
Gale diagrams on odd polygons: bigraded Betti data, pentagon Tor-class
search, mod-2 characteristic matrix enumeration, and graded-isomorphism
testing of the resulting GF(2) cohomology quotients.

Every name in __all__ is imported from its defining module on first
access (PEP 562), so importing galerig, or a command module such as
galerig.cli, compiles none of the modules a command does not run."""

import sys

# defining module of each exported name
_EXPORTS = {
    "gale": ("GaleDiagram", "FaceStructure", "canonical_weights", "face_structure",
             "origin_in_hull"),
    "betti": ("beta_first_row", "betti_table", "h_vector", "supports_quasitoric",
              "window_sums"),
    "petersen": ("five_cycles", "petersen_labels", "tor_class"),
    "charmat": ("enumerate_charmats", "is_characteristic"),
    "cohomology": ("GradedQuotient", "codim", "ideal_equal", "invariant_profile", "iso_keys",
                   "order", "quotient_presentation", "top_functional"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # the import statement's path, which -X importtime lists
    value = getattr(sys.modules[qualified], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
