"""Exception hierarchy shared by all curvarb modules.

Configuration-style failures (bad inputs, invalid scenario files, lattice
mismatches) are distinct from numerical failures discovered mid-computation
(non-finite values, singular denominators, starved estimators).  The CLI maps
the former to exit code 2 and the latter to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "CurvarbError",
    "ConfigurationError",
    "DomainError",
    "NumericalError",
    "SingularTransformError",
    "NumeraireError",
    "EstimationError",
]


class CurvarbError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CurvarbError):
    """Invalid inputs: shapes, grids, schema violations, incompatible lattices."""


class DomainError(ConfigurationError):
    """A query outside the domain an object was built on (grid ends, maturities)."""


class NumericalError(CurvarbError):
    """A computation produced or encountered invalid numbers."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SingularTransformError(NumericalError):
    """A gauge transform or portfolio hit a vanishing denominator."""


class NumeraireError(NumericalError):
    """A numeraire deflator is non-positive somewhere on the ensemble."""


class EstimationError(NumericalError):
    """A statistical estimator had too little usable data; carries diagnostics."""
