"""Independent ground-truth engines for traversal times.

Three routes that share nothing with the generating-function machinery
or the closed forms:

* ``mc_estimate`` samples traversals link by link, vectorized over samples
  and deterministic per seed.  A link is unobserved until the packet
  arrives, so its state then follows the two-state t-step law
  (``transient_prob``); from there the crossing is a sum of sojourns,
  Geom(p) off-runs and Geom(q) on-runs, drawn whole rather than slot by
  slot.
* ``exact_ett_dp`` / ``exact_pmf_dp`` build the absorbing Markov chain
  over joint (packet position, crossing progress, link states) states and
  answer for the path's own initial configuration: solving for expected
  absorption times, each to a small relative error, and propagating mass
  forward for the exact latency distribution.  As in ``pgf``, a link that
  is never crossed is refused by ``check_feasible``, and a finite time
  that overflows raises NumericalSingularity.
* ``det_slot_time`` walks the deterministic p = q = 1 setting slot by
  slot, for one instance or an (m, n) array of them, as the reference for
  the closed forms of that corner.

The first two engines cross zero-length on-links within a slot, and both use the
same normative timing: the packet observes link states at integer
times, each off-observation costs one slot, and a d-slot crossing begun at
time t completes at t + d.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalSingularity, SimulationTimeout
from .model import (
    EdgeDynamics,
    FailureModel,
    LengthDist,
    PathSpec,
    check_feasible,
    det_instances,
    transient_prob,
)

__all__ = [
    "SimResult",
    "mc_estimate",
    "exact_ett_dp",
    "exact_pmf_dp",
    "det_slot_time",
]

_STEP_CAP = 10_000_000
_MAX_N = 8
_MAX_SUPPORT = 4
_CHUNK = 1 << 17


# --------------------------------------------------------------------------
# Monte Carlo by sojourns
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SimResult:
    """Summary of a seeded Monte Carlo run; mean is the histogram-weighted average."""

    mean: float
    stderr: float
    histogram: dict[int, int]
    samples: int
    seed: int


def _thread_count() -> int:
    """Worker threads allowed by DYNPATH_THREADS; 1 when unset or malformed."""
    raw = os.environ.get("DYNPATH_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _draw_lengths(rng: np.random.Generator, length: LengthDist, count: int) -> np.ndarray:
    if length.is_constant:
        return np.full(count, length.values[0], dtype=np.int64)
    vals = np.asarray(length.values, dtype=np.int64)
    probs = np.asarray(length.probs, dtype=float)
    probs = probs / probs.sum()
    return rng.choice(vals, size=count, p=probs)


def _simulate_chunk(path: PathSpec, m: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    rng = np.random.default_rng(seed_seq)
    dyn, model = path.dynamics, path.model
    t = np.zeros(m, dtype=np.int64)

    def add(rows: np.ndarray, slots: np.ndarray) -> None:
        # t <= _STEP_CAP holds throughout, so the comparison cannot wrap
        if (slots > _STEP_CAP - t[rows]).any():
            raise SimulationTimeout(f"sample exceeded {_STEP_CAP} slots")
        t[rows] += slots

    def wait(rows: np.ndarray) -> None:  # an off-run: Geom(p) slots until the link is on
        add(rows, rng.geometric(dyn.p, rows.size))

    everyone = np.arange(m)
    for x, length in zip(path.x, path.lengths):
        # Unobserved until the packet arrives, the link has flipped by then
        # with the t-step probability, which is exactly 0 at t = 0.
        flipped = rng.random(m) < transient_prob(dyn, x, 1 - x, t)
        wait(np.flatnonzero(flipped == bool(x)))
        d = _draw_lengths(rng, length, m)
        if model is FailureModel.CANT_START:
            add(everyone, d)
        elif model is FailureModel.RESUME:
            add(everyone, d)
            # each of the d - 1 seams between on-slots falls into an outage w.p. q
            outages = rng.binomial(np.maximum(d - 1, 0), dyn.q)
            while (rows := np.flatnonzero(outages)).size:
                wait(rows)
                outages[rows] -= 1
        else:
            # An attempt needs d consecutive on-slots: it wins when its
            # Geom(q) on-run reaches d, and otherwise pays the run plus the
            # off-run after it.  An on-run never ends when q = 0.
            rows = everyone
            while rows.size:
                run = rng.geometric(dyn.q, rows.size) if dyn.q > 0.0 else d
                won = run >= d
                add(rows[won], d[won])
                rows, d = rows[~won], d[~won]
                add(rows, run[~won])
                wait(rows)
                if model is FailureModel.RETRANSMIT_RESAMPLED:
                    d = _draw_lengths(rng, length, rows.size)
    return t


def mc_estimate(path: PathSpec, samples: int, seed: int) -> SimResult:
    """Seeded Monte Carlo estimate of the traversal time, drawn by sojourns.

    Samples are simulated in fixed-size chunks whose generators are spawned
    deterministically from ``seed``, so the result does not depend on how
    many worker threads (``DYNPATH_THREADS``) execute the chunks.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    for ld in set(path.lengths):
        check_feasible(path.model, path.dynamics, ld)
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    seqs = np.random.SeedSequence(seed).spawn(len(sizes))
    with ThreadPoolExecutor(max_workers=min(_thread_count(), len(sizes))) as pool:
        parts = list(pool.map(lambda m, ss: _simulate_chunk(path, m, ss), sizes, seqs))
    values, counts = np.unique(np.concatenate(parts), return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    mean = float(np.dot(values, counts) / samples)
    if samples > 1:
        var = float(np.dot(counts, (values - mean) ** 2) / (samples - 1))
        stderr = math.sqrt(var / samples)
    else:
        stderr = 0.0
    return SimResult(mean=mean, stderr=stderr, histogram=hist, samples=samples, seed=seed)


# --------------------------------------------------------------------------
# Exact computations on the joint chain
# --------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a >= 0, where b's non-finite entries make inf only the rows that weigh them."""
    finite = np.isfinite(b)
    if finite.all():
        return a @ b
    out = a @ np.where(finite, b, 0.0)
    out[a @ ~finite > 0.0] = np.inf  # a >= 0, so a sum is positive iff one of its terms is
    return out


def _gth(a: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve (I - A) X = R for A >= 0 with row sums 1 - s, s >= 0 and R >= 0.

    Grassmann-Taksar-Heyman elimination, last half first, never subtracts, so
    each component has high relative accuracy (Alfa, Xue & Ye, 2002).  A row
    that cannot reach an overflowing one stays finite (``_dot``).
    """
    if s.size <= 1:
        return r / s[:, None]
    f = s.size // 2
    x = _gth(a[f:, f:], s[f:] + a[f:, :f].sum(axis=1), np.hstack([a[f:, :f], s[f:, None], r[f:]]))
    t = _dot(a[:f, f:], x)
    h = _gth(a[:f, :f] + t[:, :f], s[:f] + t[:, f], r[:f] + t[:, f + 1 :])
    return np.vstack([h, _dot(x[:, :f], h) + x[:, f + 1 :]])


def _merge(acc: dict, sub: tuple, w: float) -> float:
    """Add w times the persisted states of ``sub`` into ``acc``; return w times its absorbed mass."""
    states, absorbed = sub
    for s, pr in states:
        acc[s] = acc.get(s, 0.0) + w * pr
    return w * absorbed


class _AbsorbingChain:
    """Absorbing chain over resolved joint states, shared by every initial config."""

    def __init__(self, dynamics: EdgeDynamics, model: FailureModel, lengths: tuple[LengthDist, ...]):
        n = len(lengths)
        if n > _MAX_N:
            raise ConfigurationError(f"exact engine supports n <= {_MAX_N}, got {n}")
        if any(ld.max_value > _MAX_SUPPORT for ld in lengths):
            raise ConfigurationError(
                f"exact engine supports length values <= {_MAX_SUPPORT}"
            )
        for ld in set(lengths):
            check_feasible(model, dynamics, ld)
        self.n = n
        self.model = model
        self.lengths = lengths
        p, q = dynamics.p, dynamics.q
        base = np.array([[1.0 - p, p], [q, 1.0 - q]])
        # evolution matrix over m remaining links, LSB = current link
        self._evolve = [np.ones((1, 1))]
        for _ in range(n):
            self._evolve.append(np.kron(self._evolve[-1], base))
        self._resolve_memo: dict[tuple, tuple[tuple, float]] = {}
        self._build()

    # -- state resolution (instantaneous transitions within a slot) --

    def _resolve(self, arriving: bool, node: int, real: int | None, cfg: int):
        """Persisted states plus absorbed mass once the packet observes link ``node``.

        Off, the packet waits; on, it crosses the realized length ``real`` or,
        with none, one drawn from the law, a length 0 within the slot.
        Identical retransmission draws once, on arrival.
        """
        key = (arriving, node, real, cfg)
        hit = self._resolve_memo.get(key)
        if hit is not None:
            return hit
        acc: dict[tuple, float] = {}
        absorbed = 0.0
        if node == self.n:
            absorbed = 1.0
        elif arriving and self.model is FailureModel.RETRANSMIT_IDENTICAL:
            ld = self.lengths[node]
            for v, pr in zip(ld.values, ld.probs):
                absorbed += _merge(acc, self._resolve(False, node, v, cfg), pr)
        elif cfg & 1 == 0:
            acc[(node, 0, real, cfg)] = 1.0
        else:
            ld = self.lengths[node]
            for v, pr in ((real, 1.0),) if real is not None else zip(ld.values, ld.probs):
                if v == 0:
                    sub = self._resolve(True, node + 1, None, cfg >> 1)
                else:
                    sub = ((((node, 0, v, cfg), 1.0),), 0.0)
                absorbed += _merge(acc, sub, pr)
        result = (tuple(acc.items()), absorbed)
        self._resolve_memo[key] = result
        return result

    # -- one slot of dynamics from a persisted state --

    def _step(self, state: tuple):
        node, prog, real, cfg = state
        m = self.n - node
        bit = cfg & 1
        crossing = prog >= 1 or (bit == 1 and real is not None)
        model = self.model
        if crossing and (bit or model is FailureModel.CANT_START):
            prog2, real2 = prog + 1, real
        elif crossing and model is FailureModel.RESUME:
            prog2, real2 = prog, real  # an outage pauses the crossing
        elif crossing and model is FailureModel.RETRANSMIT_RESAMPLED:
            prog2, real2 = -1, None  # attempt failed, fresh draw next try
        else:
            prog2, real2 = -1, real  # waiting, or identical's failed attempt keeps its length

        out: dict[tuple, float] = {}
        absorbed = 0.0
        row = self._evolve[m][cfg]
        for cfg2 in range(1 << m):
            w = row[cfg2]
            if w == 0.0:
                continue
            if prog2 >= 0 and prog2 == real2:
                sub = self._resolve(True, node + 1, None, cfg2 >> 1)
            elif prog2 >= 0:
                sub = ((((node, prog2, real2, cfg2), 1.0),), 0.0)
            else:
                sub = self._resolve(False, node, real2, cfg2)
            absorbed += _merge(out, sub, w)
        return out, absorbed

    # -- assembly --

    def _build(self) -> None:
        n = self.n
        self._init: list[tuple[tuple, float]] = []
        index: dict[tuple, int] = {}
        order: list[tuple] = []

        def intern(s: tuple) -> int:
            idx = index.get(s)
            if idx is None:
                idx = len(order)
                index[s] = idx
                order.append(s)
            return idx

        for cfg in range(1 << n):
            states, ab = self._resolve(True, 0, None, cfg)
            self._init.append((states, ab))
            for s, _ in states:
                intern(s)

        rows, cols, vals = [], [], []
        absorb = []
        for i, s in enumerate(order):  # order grows as new states are interned
            trans, ab = self._step(s)
            absorb.append(ab)
            for s2, pr in trans.items():
                rows.append(i)
                cols.append(intern(s2))
                vals.append(pr)
        self._index, self._order = index, order
        self._node = np.array([s[0] for s in order])
        self._rows, self._cols = np.array([rows, cols], dtype=np.int64)  # empty when all states absorb
        self._vals, self._absorb = np.array(vals), np.array(absorb)

    @cached_property
    def _hitting(self) -> np.ndarray:
        node, rows, cols, vals = self._node, self._rows, self._cols, self._vals
        h, pos = np.zeros(node.size), np.zeros(node.size, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(self.n - 1, -1, -1):  # a packet never moves back
                idx = np.flatnonzero(node == k)
                pos[idx] = np.arange(idx.size)
                mine = node[rows] == k
                inner, out = mine & (node[cols] == k), mine & (node[cols] > k)
                a = np.zeros((idx.size, idx.size))
                a[pos[rows[inner]], pos[cols[inner]]] = vals[inner]
                leave = pos[rows[out]]
                s = self._absorb[idx] + np.bincount(leave, weights=vals[out], minlength=idx.size)
                r = 1.0 + np.bincount(leave, weights=vals[out] * h[cols[out]], minlength=idx.size)
                h[idx] = _gth(a, s, r[:, None])[:, 0]
        return h

    def _config_int(self, x) -> int:
        return sum(int(b) << j for j, b in enumerate(x))

    def ett(self, x) -> float:
        states, _ = self._init[self._config_int(x)]
        total = math.fsum(pr * self._hitting[self._index[s]] for s, pr in states)
        if not math.isfinite(total):  # check_feasible passed, so the time is finite
            raise NumericalSingularity("an expected absorption time overflows")
        return total

    def pmf(self, x, horizon: int) -> np.ndarray:
        states, ab = self._init[self._config_int(x)]
        out = np.zeros(horizon + 1)
        out[0] = ab
        rho = np.zeros(self._node.size)
        for s, pr in states:
            rho[self._index[s]] += pr
        for t in range(1, horizon + 1):
            out[t] = float(np.dot(rho, self._absorb))
            rho = np.bincount(self._cols, weights=self._vals * rho[self._rows], minlength=rho.size)
        return out


# Callers reuse a chain only across consecutive calls (validation's walk reads
# one chain for a grid point's ETTs and then its pmfs), so a few suffice.
@lru_cache(maxsize=8)
def _chain(dynamics: EdgeDynamics, model: FailureModel, lengths: tuple[LengthDist, ...]):
    return _AbsorbingChain(dynamics, model, lengths)


def exact_ett_dp(path: PathSpec) -> float:
    """Expected traversal time by linear solve on the joint absorbing chain.

    Each result has a small relative error whatever cond(I - P) (``_gth``);
    for n <= 8 and length values <= 4, as an independent check of ``ett``.
    """
    return _chain(path.dynamics, path.model, path.lengths).ett(path.x)


def exact_pmf_dp(path: PathSpec, horizon: int) -> np.ndarray:
    """Exact Pr(T = t) for t = 0..horizon by forward propagation from ``path.x``.

    A random start is a weighted sum of these fixed-start answers.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return _chain(path.dynamics, path.model, path.lengths).pmf(path.x, horizon)


# --------------------------------------------------------------------------
# Deterministic alternating-setting slot simulator (p = q = 1)
# --------------------------------------------------------------------------


def det_slot_time(bits, lengths, model: FailureModel = FailureModel.CANT_START):
    """Slot-by-slot traversal time when every link flips state each slot (p = q = 1).

    ``bits[..., i]`` is the initial state of link i+1 and ``lengths[..., i]``
    its constant length: (n,) inputs give an int, (m, n) arrays one time
    per row.  The rules are walked literally, link by link and vectorized
    over rows: the packet waits one slot at a time while the link is off,
    then crosses in d slots, or under resume in d on-slots.  The retransmit
    models act as can't-start on lengths 0 and 1 and never cross longer ones.
    """
    b, d, one = det_instances(bits, lengths)
    if model.is_retransmit:
        check_feasible(model, EdgeDynamics(1.0, 1.0), LengthDist.constant(int(d.max(initial=0))))
        model = FailureModel.CANT_START
    t = np.zeros(b.shape[0], dtype=np.int64)
    for bi, di in zip(b.T, d.T):
        while (off := bi == t & 1).any():  # the link's state at t is bi ^ (t & 1)
            t += off
        if model is FailureModel.CANT_START:
            t += di
        else:
            left = di.copy()
            while (busy := left > 0).any():
                left -= busy & (bi != t & 1)
                t += busy
    return int(t[0]) if one else t
