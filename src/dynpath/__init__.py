"""Traversal times on paths of intermittently available links.

Each link of an n-link path follows a two-state on/off Markov chain with
per-slot repair probability p and failure probability q.  Given the full
initial configuration, the package computes the exact expected traversal
time in O(n K), with K = ceil(log 2^-54 / log|1 - p - q|) capped at n,
extracts the latency distribution from the underlying generating
functions, and cross-checks everything against slot-level simulation and
absorbing-chain linear algebra.
"""

from .closedform import (
    DeterministicPath,
    bernoulli_ett,
    bernoulli_pmf,
    det_model2_time,
    det_model2_time_batch,
    det_traversal_time,
    det_traversal_time_batch,
    max_geom_ett,
    steady_ett,
    steady_pmf_as_printed,
)
from .errors import (
    ConfigurationError,
    DynpathError,
    InfiniteExpectation,
    NumericalSingularity,
    SimulationTimeout,
)
from .model import (
    EdgeDynamics,
    FailureModel,
    LengthDist,
    PathSpec,
    transient_prob,
    uniform_path,
)
from .oracle import (
    SimResult,
    det_slot_time,
    det_slot_time_batch,
    exact_ett_dp,
    exact_pmf_dp,
    mc_estimate,
)
from .pgf import (
    GammaPair,
    TruncatedPmf,
    ett,
    ett_batch,
    f_pair,
    gamma_pair,
    gy,
    pmf,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeDynamics",
    "LengthDist",
    "FailureModel",
    "PathSpec",
    "transient_prob",
    "uniform_path",
    "DeterministicPath",
    "det_traversal_time",
    "det_traversal_time_batch",
    "det_model2_time",
    "det_model2_time_batch",
    "bernoulli_ett",
    "bernoulli_pmf",
    "steady_ett",
    "steady_pmf_as_printed",
    "max_geom_ett",
    "gy",
    "f_pair",
    "gamma_pair",
    "GammaPair",
    "ett",
    "ett_batch",
    "pmf",
    "TruncatedPmf",
    "SimResult",
    "mc_estimate",
    "exact_ett_dp",
    "exact_pmf_dp",
    "det_slot_time",
    "det_slot_time_batch",
    "DynpathError",
    "NumericalSingularity",
    "InfiniteExpectation",
    "ConfigurationError",
    "SimulationTimeout",
]
