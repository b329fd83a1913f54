"""Exception types shared across the package."""

__all__ = [
    "DynpathError",
    "NumericalSingularity",
    "InfiniteExpectation",
    "ConfigurationError",
    "SimulationTimeout",
]


class DynpathError(Exception):
    """Base class for all package-specific failures."""


class NumericalSingularity(DynpathError):
    """A denominator collapsed below the safe evaluation threshold."""


class InfiniteExpectation(DynpathError):
    """The requested expectation diverges for these parameters."""


class ConfigurationError(DynpathError):
    """Inputs are structurally valid but outside the supported limits."""


class SimulationTimeout(DynpathError):
    """A simulated sample exceeded the per-sample step cap."""
