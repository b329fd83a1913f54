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
    """A finite result that double precision cannot carry, or a denominator that vanished."""


class InfiniteExpectation(DynpathError):
    """A link this model never crosses, as decided by ``model.check_feasible``."""


class ConfigurationError(DynpathError):
    """Inputs are structurally valid but outside the supported limits."""


class SimulationTimeout(DynpathError):
    """A simulated sample exceeded the per-sample step cap."""
