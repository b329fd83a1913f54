"""Two-state link dynamics and path descriptions.

A path consists of n links, each flipping between off (0) and on (1) once
per time slot: an off link turns on with probability p, an on link turns
off with probability q, independently of every other link.  A packet walks
the path from node 0 to node n, waiting one slot per off-observation and
crossing a link according to its length and the failure model in force.

Time is slotted; "time t" is the beginning of slot t, with slot 0 holding
the known initial configuration.  The convention used throughout the
package: the packet observes a link's state at integer times, a wait costs
exactly one slot, a d-slot crossing begun at time t completes at t + d,
and every link's chain advances once per slot no matter where the packet
is.  Zero-length on-links are crossed instantly within a slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InfiniteExpectation

__all__ = [
    "EdgeDynamics",
    "LengthDist",
    "FailureModel",
    "PathSpec",
    "transient_prob",
    "uniform_path",
]


@dataclass(frozen=True)
class EdgeDynamics:
    """Per-slot transition probabilities of a single link's on/off chain.

    Parameters
    ----------
    p : float
        Probability an off link turns on in one slot.  Must be positive:
        with p = 0 an initially-off link would never appear and every
        downstream expectation would diverge.
    q : float
        Probability an on link turns off in one slot.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must satisfy 0 < p <= 1, got {self.p}")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q must satisfy 0 <= q <= 1, got {self.q}")

    @property
    def beta(self) -> float:
        """Second eigenvalue of the transition matrix, 1 - p - q."""
        return 1.0 - self.p - self.q

    @property
    def pi0(self) -> float:
        """Stationary probability of the off state, q / (p + q)."""
        return self.q / (self.p + self.q)

    @property
    def pi1(self) -> float:
        """Stationary probability of the on state, p / (p + q)."""
        return self.p / (self.p + self.q)


@dataclass(frozen=True)
class LengthDist:
    """Distribution of a link's length in slots (finite integer support).

    A constant length is a single-atom distribution.  Constant 0 gives
    cut-through semantics (instant hop over an on link), constant 1 gives
    store-or-advance semantics (one slot per link); anything else is a
    general integer length.
    """

    values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("support and probabilities must be non-empty and equal length")
        if any((not isinstance(v, int)) or v < 0 for v in self.values):
            raise ValueError(f"lengths must be nonnegative integers, got {self.values}")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"support values must be distinct, got {self.values}")
        if any(pr <= 0.0 for pr in self.probs):
            raise ValueError("probabilities must be strictly positive")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {math.fsum(self.probs)}")

    @classmethod
    def constant(cls, d: int) -> "LengthDist":
        return cls((d,), (1.0,))

    @classmethod
    def cut(cls) -> "LengthDist":
        """Zero-length link (cut-through)."""
        return cls.constant(0)

    @classmethod
    def soa(cls) -> "LengthDist":
        """Unit-length link (store-or-advance)."""
        return cls.constant(1)

    @classmethod
    def from_pairs(cls, pairs) -> "LengthDist":
        """Build from (value, probability) pairs, e.g. [(0, 0.5), (2, 0.5)]."""
        vals, prs = zip(*pairs)
        return cls(tuple(int(v) for v in vals), tuple(float(p) for p in prs))

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1

    @property
    def max_value(self) -> int:
        return max(self.values)

    def mean(self) -> float:
        return math.fsum(v * pr for v, pr in zip(self.values, self.probs))


class FailureModel(str, Enum):
    """What happens to a crossing in progress when the link goes down.

    CANT_START: the link only needs to be on to begin; a started crossing
    finishes unconditionally d slots later.
    RESUME: a crossing needs d cumulative on-slots; progress survives
    outages.
    RETRANSMIT_IDENTICAL: a crossing needs d consecutive on-slots; an
    outage restarts the attempt with the same realized length.
    RETRANSMIT_RESAMPLED: as above, but each attempt draws a fresh length.
    """

    CANT_START = "cant_start"
    RESUME = "resume"
    RETRANSMIT_IDENTICAL = "retransmit_identical"
    RETRANSMIT_RESAMPLED = "retransmit_resampled"

    @property
    def is_retransmit(self) -> bool:
        return self in (FailureModel.RETRANSMIT_IDENTICAL, FailureModel.RETRANSMIT_RESAMPLED)


def check_feasible(model: FailureModel, dyn: EdgeDynamics, length: LengthDist) -> None:
    """Raise InfiniteExpectation when a link of this law is never crossed.

    With q = 1 every on-run lasts one slot, so a retransmitting link fails
    every attempt at a length >= 2.  Identical retransmission repeats its
    realized length and diverges when any length is >= 2; resampled
    retransmission draws again and diverges only when every length is.
    The series engine, both oracles and the slot simulator all call it.
    """
    if not (model.is_retransmit and dyn.q >= 1.0):
        return
    d = length.max_value if model is FailureModel.RETRANSMIT_IDENTICAL else min(length.values)
    if d >= 2:
        raise InfiniteExpectation(f"{model.value} with q = 1 never completes a length-{d} crossing")


@dataclass(frozen=True)
class PathSpec:
    """An n-link path: initial bits, per-link lengths, shared dynamics, failure model.

    Bit convention: 1 = on.  ``x[i]`` and ``lengths[i]`` describe link i+1
    (the link out of node i).
    """

    x: tuple[int, ...]
    lengths: tuple[LengthDist, ...]
    dynamics: EdgeDynamics
    model: FailureModel

    def __post_init__(self) -> None:
        if not self.x:
            raise ValueError("a path needs at least one link")
        if len(self.x) != len(self.lengths):
            raise ValueError(
                f"got {len(self.x)} initial bits but {len(self.lengths)} length distributions"
            )
        if not {0, 1}.issuperset(self.x):
            raise ValueError(f"initial states must be 0/1 bits, got {self.x}")

    @property
    def n(self) -> int:
        return len(self.x)


def uniform_path(
    x, length: LengthDist, dynamics: EdgeDynamics, model: FailureModel
) -> PathSpec:
    """Path whose links all share one length distribution."""
    bits = tuple(int(b) for b in x)
    return PathSpec(bits, (length,) * len(bits), dynamics, model)


def det_instances(bits, lengths) -> tuple[np.ndarray, np.ndarray, bool]:
    """Check p = q = 1 instances given as (n,) or (m, n) bits and lengths.

    ``bits[..., i]`` is the initial state of link i+1 and ``lengths[..., i]``
    its constant length.  Returns both as (m, n) int64 arrays, and whether
    the input was one (n,) instance.
    """
    b, d = np.asarray(bits), np.asarray(lengths)
    if b.shape != d.shape or b.ndim not in (1, 2) or b.shape[-1] == 0:
        raise ValueError(
            f"bits and lengths must share a non-empty (n,) or (m, n) shape, got {b.shape} and {d.shape}"
        )
    if not ((b == 0) | (b == 1)).all():
        raise ValueError("bits must be 0/1")
    if d.dtype.kind not in "iu" or (d < 0).any():
        raise ValueError("lengths must be nonnegative integers")
    rows_b, rows_d = (np.atleast_2d(a).astype(np.int64, copy=False) for a in (b, d))
    return rows_b, rows_d, b.ndim == 1


def transient_prob(dyn: EdgeDynamics, a: int, b: int, t: int | np.ndarray) -> float | np.ndarray:
    """Probability the link is in state ``b`` after ``t`` slots, starting in ``a``.

    ``t`` is an integer or an integer ndarray; the result has its shape.  A
    scalar is evaluated as a one-element array, so it gives the same bits
    as that ``t`` inside an array.
    Uses the spectral closed forms of the two-state chain,
    P(1->0, t) = pi0 (1 - beta^t), P(1->1, t) = pi1 + pi0 beta^t,
    P(0->1, t) = pi1 (1 - beta^t), P(0->0, t) = pi0 + pi1 beta^t.
    Each is formed from nonnegative terms, so no result is negative: the
    staying forms subtract at odd t when beta < 0, and are then written
    with pi_a + pi_{1-a} beta = 1 - l, l being the one-slot leaving
    probability (q from on, p from off), as
    P(a->a, t) = (1 - l) + pi_{1-a} |beta| (1 - beta^(t-1)) for t >= 1,
    which is exactly 0 where the chain cannot stay (l = 1 at t = 1).
    """
    ts = np.atleast_1d(t)
    if np.any(ts < 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("states must be 0 or 1")
    beta = dyn.beta
    stay_pi, other = (dyn.pi1, dyn.pi0) if a == 1 else (dyn.pi0, dyn.pi1)
    if a != b or beta >= 0.0:
        bt = beta**ts  # an integer power keeps the sign of a negative beta; |beta^t| <= 1
        out = other * (1.0 - bt) if a != b else stay_pi + other * bt
    else:
        leave = dyn.q if a == 1 else dyn.p
        stay = (1.0 - leave) - other * beta * (1.0 - beta ** np.maximum(ts - 1, 0))
        out = np.where(ts == 0, 1.0, stay)
    return out if np.ndim(t) else float(out[0])
