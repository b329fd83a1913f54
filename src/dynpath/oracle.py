"""Independent ground-truth engines for traversal times.

Two routes that share nothing with the generating-function machinery:

* ``mc_estimate`` walks the slot semantics literally, advancing every
  link's chain once per slot and moving the packet by observation rules,
  vectorized over samples and deterministic per seed.
* ``exact_ett_dp`` / ``exact_pmf_dp`` build the absorbing Markov chain
  over joint (packet position, crossing progress, link states) states,
  solving a linear system for expected absorption time and propagating
  mass forward for the exact latency distribution.

Both engines collapse runs of zero-length on-links within a slot, and both
use the same normative timing: the packet observes link states at integer
times, each off-observation costs one slot, and a d-slot crossing begun at
time t completes at t + d.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, InfiniteExpectation, SimulationTimeout
from .model import EdgeDynamics, FailureModel, LengthDist, PathSpec

__all__ = [
    "SimResult",
    "mc_estimate",
    "exact_ett_dp",
    "exact_pmf_dp",
    "det_slot_time",
    "det_slot_time_batch",
]

_STEP_CAP = 10_000_000
_STATE_CAP = 2_000_000
_MAX_N = 8
_MAX_SUPPORT = 4
_DENSE_CUTOFF = 2_000
_CHUNK = 1 << 17


# --------------------------------------------------------------------------
# Monte Carlo slot simulator
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
    n = path.n
    model = path.model
    p, q = path.dynamics.p, path.dynamics.q
    identical = model is FailureModel.RETRANSMIT_IDENTICAL
    resampled = model is FailureModel.RETRANSMIT_RESAMPLED

    cfg = np.broadcast_to(np.array(path.x, dtype=bool), (m, n)).copy()
    node = np.zeros(m, dtype=np.int64)
    prog = np.full(m, -1, dtype=np.int64)  # -1: not crossing
    real = np.full(m, -1, dtype=np.int64)  # -1: length not drawn
    out = np.zeros(m, dtype=np.int64)
    alive = np.arange(m)

    # per-link draw helper, vectorized over a set of row indices
    def draw_for(rows: np.ndarray) -> np.ndarray:
        d = np.empty(rows.size, dtype=np.int64)
        nodes = node[rows]
        for li in np.unique(nodes):
            sel = nodes == li
            d[sel] = _draw_lengths(rng, path.lengths[li], int(sel.sum()))
        return d

    t = 0
    while alive.size:
        if t > _STEP_CAP:
            raise SimulationTimeout(f"sample exceeded {_STEP_CAP} slots")
        # resolve everything instantaneous at time t
        while True:
            changed = False
            done_cross = (prog >= 0) & (prog == real)
            if done_cross.any():
                node[done_cross] += 1
                prog[done_cross] = -1
                real[done_cross] = -1
                changed = True
            fin = node >= n
            if fin.any():
                out[alive[fin]] = t
                keep = ~fin
                alive = alive[keep]
                node, prog, real, cfg = node[keep], prog[keep], real[keep], cfg[keep]
                changed = True
                if alive.size == 0:
                    break
            if identical:
                undrawn = real < 0
                if undrawn.any():
                    rows = np.flatnonzero(undrawn)
                    real[rows] = draw_for(rows)
                    changed = True
            awaiting = prog < 0
            if awaiting.any():
                bit = cfg[np.arange(node.size), node]
                obs_on = awaiting & bit
                if obs_on.any():
                    rows = np.flatnonzero(obs_on)
                    d = real[rows] if identical else draw_for(rows)
                    instant = d == 0
                    if instant.any():
                        ir = rows[instant]
                        node[ir] += 1
                        real[ir] = -1  # a fresh link means a fresh draw
                    started = ~instant
                    if started.any():
                        sr = rows[started]
                        real[sr] = d[started]
                        prog[sr] = 0
                    changed = True
            if not changed:
                break
        if alive.size == 0:
            break
        # slot passes: tick crossings by the current bit, then advance chains
        bit = cfg[np.arange(node.size), node]
        crossing = prog >= 0
        if model is FailureModel.CANT_START:
            prog[crossing] += 1
        elif model is FailureModel.RESUME:
            prog[crossing & bit] += 1
        else:
            prog[crossing & bit] += 1
            failed = crossing & ~bit
            prog[failed] = -1
            if resampled:
                real[failed] = -1
        u = rng.random(cfg.shape)
        cfg = np.where(cfg, u >= q, u < p)
        t += 1
    return out


def mc_estimate(path: PathSpec, samples: int, seed: int) -> SimResult:
    """Seeded slot-by-slot Monte Carlo estimate of the traversal time.

    Samples are simulated in fixed-size chunks whose generators are spawned
    deterministically from ``seed``, so the result does not depend on how
    many worker threads (``DYNPATH_THREADS``) execute the chunks.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    seqs = np.random.SeedSequence(seed).spawn(len(sizes))
    workers = min(_thread_count(), len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda a: _simulate_chunk(path, a[0], a[1]), zip(sizes, seqs)))
    else:
        parts = [_simulate_chunk(path, m, ss) for m, ss in zip(sizes, seqs)]
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
        if model.is_retransmit and dynamics.q >= 1.0 and any(
            ld.max_value >= 2 for ld in lengths
        ):
            raise InfiniteExpectation("retransmit with q = 1 never completes length >= 2")
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
        self._h: np.ndarray | None = None

    # -- state resolution (instantaneous transitions within a slot) --

    def _resolve(self, kind: str, node: int, real: int | None, cfg: int):
        """Distribution over persisted states plus absorbed mass for one raw state."""
        key = (kind, node, real, cfg)
        hit = self._resolve_memo.get(key)
        if hit is not None:
            return hit
        acc: dict[tuple, float] = {}
        absorbed = 0.0

        def add(sub, w):
            nonlocal absorbed
            states, ab = sub
            absorbed += w * ab
            for s, pr in states:
                acc[s] = acc.get(s, 0.0) + w * pr

        if node == self.n:
            result = ((), 1.0)
        elif kind == "arrive" and self.model is FailureModel.RETRANSMIT_IDENTICAL:
            ld = self.lengths[node]
            for v, pr in zip(ld.values, ld.probs):
                add(self._resolve("obs", node, v, cfg), pr)
            result = (tuple(acc.items()), absorbed)
        else:
            bit = cfg & 1
            if bit == 0:
                result = ((((node, 0, real, cfg), 1.0),), 0.0)
            elif self.model is FailureModel.RETRANSMIT_IDENTICAL:
                if real == 0:
                    result = self._resolve("arrive", node + 1, None, cfg >> 1)
                else:
                    result = ((((node, 0, real, cfg), 1.0),), 0.0)
            else:
                ld = self.lengths[node]
                for v, pr in zip(ld.values, ld.probs):
                    if v == 0:
                        add(self._resolve("arrive", node + 1, None, cfg >> 1), pr)
                    else:
                        s = (node, 0, v, cfg)
                        acc[s] = acc.get(s, 0.0) + pr
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
        if crossing:
            if model is FailureModel.CANT_START:
                prog2, real2 = prog + 1, real
            elif model is FailureModel.RESUME:
                prog2, real2 = prog + (1 if bit else 0), real
            elif bit:
                prog2, real2 = prog + 1, real
            elif model is FailureModel.RETRANSMIT_IDENTICAL:
                prog2, real2 = -1, real  # attempt failed, same length next try
            else:
                prog2, real2 = -1, None  # attempt failed, fresh draw next try
        else:
            prog2, real2 = -1, real  # plain waiting (real kept only for identical)

        out: dict[tuple, float] = {}
        absorbed = 0.0
        row = self._evolve[m][cfg]
        for cfg2 in range(1 << m):
            w = row[cfg2]
            if w == 0.0:
                continue
            if prog2 >= 0 and prog2 == real2:
                sub = self._resolve("arrive", node + 1, None, cfg2 >> 1)
            elif prog2 >= 0:
                sub = ((((node, prog2, real2, cfg2), 1.0),), 0.0)
            else:
                sub = self._resolve("obs", node, real2, cfg2)
            states, ab = sub
            absorbed += w * ab
            for s, pr in states:
                out[s] = out.get(s, 0.0) + w * pr
        return out, absorbed

    # -- assembly --

    def _build(self) -> None:
        import scipy.sparse as sp  # imported here: ett, pmf and sweep never need scipy

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
            states, ab = self._resolve("arrive", 0, None, cfg)
            self._init.append((states, ab))
            for s, _ in states:
                intern(s)

        rows, cols, vals = [], [], []
        absorb = []
        i = 0
        while i < len(order):
            s = order[i]
            if len(order) > _STATE_CAP:
                raise ConfigurationError(f"joint state space exceeded {_STATE_CAP}")
            trans, ab = self._step(s)
            absorb.append(ab)
            for s2, pr in trans.items():
                rows.append(i)
                cols.append(intern(s2))
                vals.append(pr)
            i += 1
        size = len(order)
        self._index = index
        self._order = order
        self._P = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
        self._absorb = np.array(absorb)

    def _hitting(self) -> np.ndarray:
        if self._h is not None:
            return self._h
        size = self._P.shape[0]
        b = np.ones(size)
        try:
            if size <= _DENSE_CUTOFF:
                a = np.eye(size) - self._P.toarray()
                h = np.linalg.solve(a, b)
            else:
                import scipy.sparse as sp
                import scipy.sparse.linalg as spla

                a = sp.identity(size, format="csc") - self._P.tocsc()
                h = spla.spsolve(a, b)
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise InfiniteExpectation(f"absorption-time system is singular: {exc}") from exc
        if not np.all(np.isfinite(h)) or np.any(h < -1e-9):
            raise InfiniteExpectation("absorption-time system has no finite solution")
        resid = np.max(np.abs(h - self._P.dot(h) - b))
        if resid > 1e-12 * max(1.0, float(np.max(np.abs(h)))):
            raise InfiniteExpectation(f"linear solve residual too large: {resid:.3e}")
        self._h = h
        return h

    def _config_int(self, x) -> int:
        return sum(int(b) << j for j, b in enumerate(x))

    def ett(self, x) -> float:
        h = self._hitting()
        states, _ = self._init[self._config_int(x)]
        return math.fsum(pr * h[self._index[s]] for s, pr in states)

    def pmf(self, weights: dict[int, float], horizon: int) -> np.ndarray:
        out = np.zeros(horizon + 1)
        rho = np.zeros(self._P.shape[0])
        for cfg, w in weights.items():
            states, ab = self._init[cfg]
            out[0] += w * ab
            for s, pr in states:
                rho[self._index[s]] += w * pr
        pt = self._P.T.tocsr()
        for t in range(1, horizon + 1):
            out[t] = float(np.dot(rho, self._absorb))
            rho = pt.dot(rho)
        return out


# Callers reuse a chain only across consecutive calls, and one chain can
# hold up to _STATE_CAP states, so only a few are kept.
@lru_cache(maxsize=8)
def _chain(dynamics: EdgeDynamics, model: FailureModel, lengths: tuple[LengthDist, ...]):
    return _AbsorbingChain(dynamics, model, lengths)


def exact_ett_dp(path: PathSpec) -> float:
    """Expected traversal time by linear solve on the joint absorbing chain.

    Exact up to solver round-off; intended for small paths (n <= 8, length
    values <= 4) as an independent check of the generating-function route.
    """
    return _chain(path.dynamics, path.model, path.lengths).ett(path.x)


def exact_pmf_dp(path: PathSpec, horizon: int, initial: str = "fixed") -> np.ndarray:
    """Exact Pr(T = t) for t = 0..horizon by forward propagation.

    ``initial`` selects how link states are drawn at time 0: "fixed" uses
    ``path.x`` and "stationary" draws each link from its stationary law.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    chain = _chain(path.dynamics, path.model, path.lengths)
    n = path.n
    if initial == "fixed":
        weights = {chain._config_int(path.x): 1.0}
    elif initial == "stationary":
        p_on = path.dynamics.pi1
        weights = {}
        for cfg in range(1 << n):
            w = 1.0
            for j in range(n):
                w *= p_on if (cfg >> j) & 1 else 1.0 - p_on
            if w > 0.0:
                weights[cfg] = w
    else:
        raise ValueError(f"unknown initial mode {initial!r}")
    return chain.pmf(weights, horizon)


# --------------------------------------------------------------------------
# Deterministic alternating-setting slot simulators (p = q = 1)
# --------------------------------------------------------------------------


def det_slot_time(bits, lengths, model: FailureModel = FailureModel.CANT_START) -> int:
    """Slot-by-slot traversal time when states flip deterministically each slot."""
    bits = tuple(int(b) for b in bits)
    lengths = tuple(int(d) for d in lengths)
    if model.is_retransmit:
        if any(d >= 2 for d in lengths):
            raise InfiniteExpectation("retransmit never completes length >= 2 when q = 1")
        model = FailureModel.CANT_START  # identical behavior on lengths in {0, 1}
    t = 0
    for i, (b, d) in enumerate(zip(bits, lengths)):
        if model is FailureModel.CANT_START:
            while (b ^ (t & 1)) == 0:
                t += 1
            t += d
        else:  # RESUME
            if d == 0:
                while (b ^ (t & 1)) == 0:
                    t += 1
            else:
                rem = d
                while rem:
                    rem -= b ^ (t & 1)
                    t += 1
    return t


def det_slot_time_batch(bits: np.ndarray, lengths: np.ndarray, model: FailureModel = FailureModel.CANT_START) -> np.ndarray:
    """Vectorized alternating-setting slot simulator over (m, n) instance arrays.

    The resume variant requires all lengths >= 1 (unit progress per on-slot
    keeps every instance in slot-lockstep).
    """
    bits = np.asarray(bits, dtype=np.int8)
    lengths = np.asarray(lengths, dtype=np.int64)
    m, n = bits.shape
    if model is FailureModel.CANT_START:
        t = np.zeros(m, dtype=np.int64)
        node = np.zeros(m, dtype=np.int64)
        active = node < n
        while active.any():
            rows = np.flatnonzero(active)
            nd = node[rows]
            on = (bits[rows, nd] ^ (t[rows] & 1)) == 1
            t[rows] += np.where(on, lengths[rows, nd], 1)
            node[rows] += on
            active = node < n
        return t
    if model is not FailureModel.RESUME:
        raise ValueError("batch simulator covers the can't-start and resume models")
    if (lengths < 1).any():
        raise ValueError("resume batch simulator requires lengths >= 1")
    out = np.zeros(m, dtype=np.int64)
    idx = np.arange(m)
    node = np.zeros(m, dtype=np.int64)
    rem = lengths[:, 0].copy()
    b_w, l_w = bits, lengths
    t = 0
    while idx.size:
        rows = np.arange(idx.size)
        on = (b_w[rows, node] ^ (t & 1)) == 1
        rem -= on
        t += 1
        done_link = rem == 0
        if done_link.any():
            node[done_link] += 1
            fin = done_link & (node == n)
            out[idx[fin]] = t
            keep = ~fin
            cont = done_link & keep
            if cont.any():
                crows = np.flatnonzero(cont)
                rem[crows] = l_w[crows, node[crows]]
            if not keep.all():
                idx, node, rem = idx[keep], node[keep], rem[keep]
                b_w, l_w = b_w[keep], l_w[keep]
    return out
