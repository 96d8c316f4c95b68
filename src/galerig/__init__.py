"""Exact rigidity computations for simple polytopes with n+3 facets given by
Gale diagrams on odd polygons: bigraded Betti data, pentagon Tor-class
search, mod-2 characteristic matrix enumeration, and graded-isomorphism
testing of the resulting GF(2) cohomology quotients."""

from .gale import (
    GaleDiagram,
    FaceStructure,
    canonical_weights,
    face_structure,
    facet_labels,
    origin_in_hull,
)
from .betti import (
    beta_first_row,
    betti_table,
    h_vector,
    supports_quasitoric,
    window_sums,
)
from .petersen import five_cycles, petersen_labels, tor_class
from .charmat import enumerate_charmats, is_characteristic
from .cohomology import (
    GradedQuotient,
    codim,
    ideal_equal,
    invariant_profile,
    iso_keys,
    order,
    quotient_presentation,
    top_functional,
)

__all__ = [
    "GaleDiagram",
    "FaceStructure",
    "canonical_weights",
    "face_structure",
    "facet_labels",
    "origin_in_hull",
    "beta_first_row",
    "betti_table",
    "h_vector",
    "supports_quasitoric",
    "window_sums",
    "five_cycles",
    "petersen_labels",
    "tor_class",
    "enumerate_charmats",
    "is_characteristic",
    "GradedQuotient",
    "codim",
    "ideal_equal",
    "invariant_profile",
    "iso_keys",
    "order",
    "quotient_presentation",
    "top_functional",
]

__version__ = "0.1.0"
