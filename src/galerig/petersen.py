"""The pentagon Tor class under its old name: betti.betti_group, which
perfbench/test_expected.py imports from here.  The Petersen-graph route
it replaced is the test oracle oracles.tor_class."""

from .betti import betti_group as tor_class  # noqa: F401
