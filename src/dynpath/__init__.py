"""Traversal times on paths of intermittently available links.

Each link of an n-link path follows a two-state on/off Markov chain with
per-slot repair probability p and failure probability q.  Given the full
initial configuration, the package computes the exact expected traversal
time in O(n + R^2), with R the rows filled before |1 - p - q|^T_min decays
past 2^-54 (T_min the sum of the shortest link lengths so far; R = n at
worst, when those lengths are mostly 0), extracts the latency
distribution from the underlying generating functions, and cross-checks
everything against Monte Carlo simulation and absorbing-chain linear
algebra.

Names are imported from their modules on first use, so loading the
package (and the ``ett``, ``pmf`` and ``sweep`` commands) leaves the
oracle, validation and closed-form modules unloaded.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "model": (
        "EdgeDynamics",
        "LengthDist",
        "FailureModel",
        "PathSpec",
        "transient_prob",
        "uniform_path",
    ),
    "closedform": (
        "det_traversal_time",
        "det_model2_time",
        "steady_ett",
        "steady_pmf_as_printed",
        "max_geom_ett",
    ),
    "pgf": ("ett", "ett_batch", "pmf", "TruncatedPmf"),
    "oracle": ("SimResult", "mc_estimate", "exact_ett_dp", "exact_pmf_dp", "det_slot_time"),
    "errors": (
        "DynpathError",
        "NumericalSingularity",
        "InfiniteExpectation",
        "ConfigurationError",
        "SimulationTimeout",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
