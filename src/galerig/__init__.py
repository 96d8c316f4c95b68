"""Exact rigidity computations for simple polytopes with n+3 facets given by
Gale diagrams on odd polygons: bigraded Betti data and the diagrams that
share it (the Tor class of a pentagon), mod-2 characteristic matrix
enumeration, and graded-isomorphism testing of the resulting GF(2)
cohomology quotients.

Each name is imported from its defining module (galerig.gale,
galerig.betti, galerig.charmat, galerig.cohomology, ...).  The package
itself imports none of them, so importing galerig, or a command module
such as galerig.cli, compiles none of the modules a command does not run."""

__version__ = "0.1.0"
