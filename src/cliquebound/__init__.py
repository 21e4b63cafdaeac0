"""Exact clique and independent-set counting in degree-bounded graphs,
with exhaustive small-graph verification of the extremal bounds.

Names are imported from the submodules (``cliquebound.counting``,
``cliquebound.enumeration`` and so on); the package root holds only
``__version__``."""

__version__ = "0.1.0"
