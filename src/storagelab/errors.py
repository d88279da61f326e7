"""Exception taxonomy shared across the package."""

from __future__ import annotations


class StorageLabError(Exception):
    """Base class for all package-specific failures."""


class Divergent(StorageLabError):
    """An integral (or limit) fails to converge."""


class NonFiniteEvaluation(StorageLabError):
    """An integrand returned NaN at a quadrature node."""


class NotBracketed(StorageLabError):
    """Root-finding target lies outside the supplied bracket."""


class DegenerateInput(StorageLabError):
    """Regression input has too few distinct points or non-positive values."""


class C3Violation(StorageLabError):
    """Jump integral of the Lyapunov profile diverges; certificate invalid."""


class InvalidRateFunction(StorageLabError):
    """Rate function fails the monotonicity/concavity grid checks."""


class InvalidModulus(StorageLabError):
    """Contraction modulus is not convex, or does not vanish only at zero."""


class HypothesisFailed(StorageLabError):
    """A named hypothesis of a bound could not be verified numerically."""

    def __init__(self, condition: str, message: str = ""):
        super().__init__(message or f"hypothesis check failed: {condition}")
        self.condition = condition


class MomentConditionFailed(StorageLabError):
    """Required jump moment is infinite."""


class NotStationaryRegime(StorageLabError):
    """Stationary estimation requested for a transient model."""


class NoiseFloorReached(StorageLabError):
    """All decay-curve points fell below the estimator noise floor."""
