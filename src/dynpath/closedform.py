"""Closed-form traversal times for special parameter regimes.

These cover three corners where the general machinery collapses to pencil
and paper: deterministic alternating links (p = q = 1), memoryless links
(q = 1 - p, every slot an independent Bernoulli(p) coin), and links that
start in the stationary distribution.  They serve both as fast paths and
as cross-checks for the generating-function engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import EdgeDynamics, LengthDist

__all__ = [
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
]


@dataclass(frozen=True)
class DeterministicPath:
    """Path instance for the alternating (p = q = 1) setting.

    ``bits[i]`` is the initial state of link i+1 and ``lengths[i]`` its
    constant length.  A virtual link 0 with state 1 and length 0 anchors
    the boundary-change bookkeeping.
    """

    bits: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits or len(self.bits) != len(self.lengths):
            raise ValueError("bits and lengths must be non-empty and equal length")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits}")
        if any(d < 0 for d in self.lengths):
            raise ValueError(f"lengths must be nonnegative, got {self.lengths}")


def det_traversal_time_batch(bits: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized alternating-setting traversal times under the can't-start model.

    ``bits`` and ``lengths`` are (m, n) integer arrays of m path instances.
    Returns total crossing time plus one extra slot at each link whose
    arrival-time parity lands on the link's off phase: with states flipping
    every slot, the packet waits at link i+1 exactly when the length of
    link i and the state change between the two links have equal parity.
    """
    bits = np.asarray(bits)
    lengths = np.asarray(lengths)
    if bits.ndim != 2 or bits.shape != lengths.shape:
        raise ValueError("bits and lengths must be equal-shape (m, n) arrays")
    m, n = bits.shape
    total = lengths.sum(axis=1, dtype=np.int64)
    prev_b = np.ones(m, dtype=bits.dtype)
    prev_d = np.zeros(m, dtype=lengths.dtype)
    for i in range(n):
        delta = np.abs(bits[:, i] - prev_b)
        total += (prev_d + delta) % 2
        prev_b = bits[:, i]
        prev_d = lengths[:, i]
    return total


def det_traversal_time(path: DeterministicPath) -> int:
    """Traversal time of one alternating-setting path, can't-start model."""
    b = np.array([path.bits], dtype=np.int64)
    d = np.array([path.lengths], dtype=np.int64)
    return int(det_traversal_time_batch(b, d)[0])


def det_model2_time_batch(bits: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized alternating-setting traversal times under the resume model.

    A link of length d with d cumulative on-slots required behaves exactly
    like d chained unit links sharing its initial state, so each instance
    is expanded that way and fed to the can't-start formula.  Zero-length
    links contribute nothing to the expansion and are dropped.
    """
    bits = np.asarray(bits, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if bits.ndim != 2 or bits.shape != lengths.shape:
        raise ValueError("bits and lengths must be equal-shape (m, n) arrays")
    m = bits.shape[0]
    out = np.zeros(m, dtype=np.int64)
    widths = lengths.sum(axis=1)
    for w in np.unique(widths):
        sel = widths == w
        if w == 0:
            out[sel] = 0
            continue
        b = bits[sel]
        ln = lengths[sel]
        expanded = np.repeat(b.ravel(), ln.ravel()).reshape(-1, w)
        out[sel] = det_traversal_time_batch(expanded, np.ones_like(expanded))
    return out


def det_model2_time(path: DeterministicPath) -> int:
    """Traversal time of one alternating-setting path, resume model."""
    b = np.array([path.bits], dtype=np.int64)
    d = np.array([path.lengths], dtype=np.int64)
    return int(det_model2_time_batch(b, d)[0])


def bernoulli_ett(p: float, lengths) -> float:
    """Expected traversal time with memoryless links (q = 1 - p), can't-start model.

    Every observation finds the link on with probability p independently,
    so each link costs its mean length plus a mean wait of (1 - p) / p.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must satisfy 0 < p <= 1, got {p}")
    lengths = list(lengths)
    mean_d = math.fsum(ld.mean() for ld in lengths)
    return mean_d + len(lengths) * (1.0 - p) / p


def _comb0(a: int, k: int) -> int:
    """Binomial coefficient with out-of-range arguments defined as 0."""
    if k < 0 or a < 0 or k > a:
        return 0
    return math.comb(a, k)


def bernoulli_pmf(p: float, n: int, D: int, t: int) -> float:
    """Latency pmf with memoryless links and constant lengths totalling D.

    The t - D waiting slots distribute over the n nodes like identical
    balls into bins: C(t-D+n-1, t-D) patterns, each of probability
    p^n (1-p)^(t-D).  Zero for t < D.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must satisfy 0 < p <= 1, got {p}")
    if n < 1 or D < 0:
        raise ValueError("need n >= 1 and D >= 0")
    if t < D:
        return 0.0
    w = t - D
    return _comb0(w + n - 1, w) * p**n * (1.0 - p) ** w


def steady_ett(dyn: EdgeDynamics, lengths) -> float:
    """Expected traversal time from stationary initial states, can't-start model.

    Each link is off with probability 1 - pi_on when first observed and
    then costs a mean geometric wait of 1/p.
    """
    lengths = list(lengths)
    mean_d = math.fsum(ld.mean() for ld in lengths)
    return mean_d + len(lengths) * (1.0 - dyn.pi1) / dyn.p


def steady_pmf_as_printed(dyn: EdgeDynamics, n: int, D: int, t: int) -> float:
    """Stationary-start latency pmf, transcribed combinatorial form.

    Evaluates, term by term,

        sum_{m=1}^{min(n, t+1)} C(n-1, m-1) C(t-D, m)
            p^n q^m (1-p)^(t-D-m) / (p+q)^n

    with out-of-range binomials taken as 0 and t < D returning 0.  This is
    a faithful transcription of a wait-segment counting argument; it is
    known to disagree with the exact forward propagation (for one, it
    assigns zero mass to t = D where a zero-wait traversal has probability
    pi_on^n), so callers should treat it as a reference curve, not ground
    truth.  See ``dynpath.oracle.exact_pmf_dp`` for the exact answer.
    """
    p, q = dyn.p, dyn.q
    if q <= 0.0:
        raise ValueError("the combinatorial form needs p > 0 and q > 0")
    if n < 1 or D < 0:
        raise ValueError("need n >= 1 and D >= 0")
    if t < D:
        return 0.0
    total = 0.0
    for m in range(1, min(n, t + 1) + 1):
        c = _comb0(n - 1, m - 1) * _comb0(t - D, m)
        if c == 0:
            continue
        total += c * p**n * q**m * (1.0 - p) ** (t - D - m)
    return total / (p + q) ** n


def max_geom_ett(n_hat: int, p: float) -> float:
    """Mean of the maximum of ``n_hat`` iid geometric(p) waits.

    Equals the expected traversal time of a path whose links never fail
    (q = 0), have zero length, and start with n_hat of them absent: the
    packet simply outwaits the slowest appearance,

        sum_{i=1}^{n_hat} C(n_hat, i) (-1)^(i+1) / (1 - (1-p)^i).

    The series alternates with binomially growing terms; compensated
    summation holds the error down roughly through n_hat = 40, and values
    beyond 60 are refused rather than silently degraded.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must satisfy 0 < p <= 1, got {p}")
    if n_hat < 0:
        raise ValueError(f"n_hat must be nonnegative, got {n_hat}")
    if n_hat > 60:
        raise ConfigurationError(
            f"alternating series loses double precision beyond n_hat = 60 (got {n_hat})"
        )
    terms = [
        math.comb(n_hat, i) * (-1.0) ** (i + 1) / (1.0 - (1.0 - p) ** i)
        for i in range(1, n_hat + 1)
    ]
    return math.fsum(terms)
