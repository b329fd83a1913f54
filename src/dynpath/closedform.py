"""Closed-form traversal times for special parameter regimes.

These cover three corners where the general machinery collapses to pencil
and paper: deterministic alternating links (p = q = 1), memoryless links
(q = 1 - p, every slot an independent Bernoulli(p) coin), and links that
start in the stationary distribution.  They serve as cross-checks for the
generating-function engine.  The two alternating forms take one instance
as (n,) bits and lengths, or m instances as (m, n) arrays, and are
checked against ``oracle.det_slot_time``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .model import EdgeDynamics, det_instances

__all__ = [
    "det_traversal_time",
    "det_model2_time",
    "steady_ett",
    "steady_pmf_as_printed",
    "max_geom_ett",
]

_MAX_GEOM_N_HAT = 25  # the largest n_hat at which max_geom_ett holds 1e-9 relative


def det_traversal_time(bits, lengths):
    """Traversal time when every link flips state each slot (p = q = 1), can't-start model.

    ``bits[..., i]`` is the initial state of link i+1 and ``lengths[..., i]``
    its constant length: (n,) inputs give an int, (m, n) arrays one time
    per row.  The crossings take sum(lengths) slots, plus one slot of
    waiting at each link whose arrival time has the parity of its off
    phase.  With states flipping every slot, the packet waits at the first
    link when it starts off, and at link i+1 exactly when the length of
    link i and the state change between the two links differ in parity.
    """
    b, d, one = det_instances(bits, lengths)
    waits = (1 - b[:, 0]) + ((d[:, :-1] ^ b[:, :-1] ^ b[:, 1:]) & 1).sum(axis=1)
    t = d.sum(axis=1) + waits
    return int(t[0]) if one else t


def det_model2_time(bits, lengths):
    """Traversal time when every link flips state each slot (p = q = 1), resume model.

    Takes (n,) or (m, n) inputs as ``det_traversal_time``.  A link is off
    in the slots whose parity equals its bit, so the packet waits one slot
    at a link whose bit equals the parity of its arrival slot.  Once on, a
    link of length d >= 1 needs d on-slots, which alternate with off ones:
    2d - 1 slots, leaving in a slot of the parity of its bit.  A zero-length
    link is crossed the moment it is on, as under can't-start, leaving in a
    slot of the other parity.  The packet starts in slot 0.
    """
    b, d, one = det_instances(bits, lengths)
    crossed = d > 0
    leave = b ^ ~crossed  # the parity of the slot the packet leaves link i in
    waits = (b[:, 0] == 0) + (b[:, 1:] == leave[:, :-1]).sum(axis=1)
    t = 2 * d.sum(axis=1) - crossed.sum(axis=1) + waits
    return int(t[0]) if one else t


def steady_ett(dyn: EdgeDynamics, lengths) -> float:
    """Expected traversal time from stationary initial states, can't-start model.

    Each link is off with probability 1 - pi_on when first observed and
    then costs a mean geometric wait of 1/p.  Memoryless links (q = 1 - p)
    have pi_on = p, so each hop pays a mean wait of (1 - p) / p.
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
    truth.  The exact answer weights ``dynpath.oracle.exact_pmf_dp`` of
    each initial configuration by its stationary probability.
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
        c = math.comb(n - 1, m - 1) * math.comb(t - D, m)
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

    Each denominator is formed as -expm1(i log1p(-p)), which keeps its
    relative accuracy at small p, and the terms are summed with compensated
    summation.  The series still alternates with binomially growing terms,
    so the error grows about as 2^n_hat eps: the result is within 1e-9
    relative of the exact sum through n_hat = 25, and a larger n_hat is
    refused.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must satisfy 0 < p <= 1, got {p}")
    if n_hat < 0:
        raise ValueError(f"n_hat must be nonnegative, got {n_hat}")
    if n_hat > _MAX_GEOM_N_HAT:
        raise ConfigurationError(
            f"alternating series misses 1e-9 relative beyond n_hat = {_MAX_GEOM_N_HAT} (got {n_hat})"
        )
    log_stay = math.log1p(-p) if p < 1.0 else -math.inf  # exp(-inf) = 0: every denominator is 1
    terms = [
        math.comb(n_hat, i) * (-1.0) ** (i + 1) / -math.expm1(i * log_stay)
        for i in range(1, n_hat + 1)
    ]
    return math.fsum(terms)
