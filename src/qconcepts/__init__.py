"""Quantum-theoretic models of concept combinations.

Membership weights of combined concepts (conjunctions, disjunctions) are
analyzed for classical representability and modeled in complex Hilbert
space: interference angles in a two-sector Fock space, CHSH statistics for
entangled combinations, an explicit 25-dimensional disjunction model, and a
two-source Gaussian wavefield rendering interference as a raster.

Modules:

* ``hilbert``: state vectors, projectors, spectral families, Born rule,
  tensor products, Schmidt rank.
* ``classicality``: delta/k/f diagnostics and over/underextension classes.
* ``fock``: two-sector weight combination and angle extraction, plus the
  3-d constructive realization.
* ``entanglement``: coincidence tables, expectation values, CHSH bounds.
* ``disjunction_model``: the explicit superposition model over exemplar
  lists with phase-sign assignment.
* ``wavefield``: level-curve placement, polynomial phase fit, pattern
  rasters, and grid export.
* ``datasets``: bundled experimental tables and CSV ingestion.
* ``cli``: the ``qconcepts`` command.
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import classicality, disjunction_model, entanglement, fock, hilbert, wavefield
from .errors import (
    ConstructionInapplicable,
    DataError,
    DimensionMismatch,
    ModelError,
    NoInterferenceSolution,
    PlacementError,
)

__all__ = [
    "__version__",
    "classicality",
    "disjunction_model",
    "entanglement",
    "fock",
    "hilbert",
    "wavefield",
    "ConstructionInapplicable",
    "DataError",
    "DimensionMismatch",
    "ModelError",
    "NoInterferenceSolution",
    "PlacementError",
]
