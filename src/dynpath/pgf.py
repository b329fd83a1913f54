"""Generating-function engine for traversal times from a known initial configuration.

The arrival time T_i of the packet at node i has probability generating
function G_i(z) = E[z^T_i].  Conditioning the state of link i at the
packet's arrival on the initial bit x_i splits the per-link delay into two
conditional generating functions F_1 (link found on) and F_0 (link found
off), tied together by the geometric off-period wait:
F_0(z) = G_Y(z) F_1(z) with G_Y(z) = p z / (1 - (1-p) z).

Because the conditional state probabilities after t slots are affine in
beta^t (beta = 1 - p - q), the path recursion only ever needs G evaluated
at powers of beta:

    G_i(z) = phi_i(z) G_{i-1}(z) + chi_i psi_i(z) G_{i-1}(beta z)

with phi_i = pi0 F_{i,0} + pi1 F_{i,1}, psi_i = F_{i,0} - F_{i,1} and
chi_i = pi1 (1 - x_i) - pi0 x_i.  Expected traversal times follow from
the derivatives at z = 1 and need only G_{i-1}(beta), read from one
buffer of values G_i(beta^k) that each link overwrites in place, keeping
only the columns later links read.  The fill ends early: |G_{i-1}(beta)|
<= |beta|^T_min(i), with T_min(i) the sum of the shortest lengths of the
first i links, so it stops at the link R past which those terms weigh at
most eps T_min(n) <= eps ETT (eps = 2^-54), and costs O(n + R^2).  R is
about K / (mean shortest length) with K = ceil(log eps / log|beta|); it
stays near n when |beta| = 1 or most shortest lengths are 0, and the fill
is then O(n^2).  ``ett_batch`` fills one buffer for many paths that share
their lengths and model, one row per path, and builds one law per length
with a column per path, or one column for paths that share one dynamics.

The latency distribution does not use the beta form.  That would carry
the series G_{i-1}(beta z) beside G_{i-1}(z) and add it with the signed
weight chi_i (its coefficients alternate in sign when beta < 0), so a
small coefficient of G_i would come out as a difference of larger ones.
The pmf conditions each link on its state at the packet's arrival
instead: given T_{i-1} = t, link i is on with probability P(x_i -> 1, t)
(``model.transient_prob``), so with g = G_{i-1}

    G_i = F_1 (g P(x_i -> 1, .) + G_Y (g P(x_i -> 0, .))),

the products with P taken coefficient by coefficient.  One series goes
through G_Y and one through F_1 per link, and every factor is
nonnegative, so nothing cancels.

Every F_1 is rational in z, and ``link_law`` writes it once as a cascade
of stages that are themselves PGFs with nonnegative coefficients:
polynomials, and divisions by 1 - c(z) with c >= 0 and c(1) < 1.  A
law's coefficients are (J, D) arrays, one column per dynamics along an
axis of size D, so one law serves every path of a batch, the (p, q)
points of a sweep among them.  The same law is read three ways: F_1's
values at powers of beta per dynamics, its slope at z = 1 (the mean delay)
per dynamics and, for one dynamics, the product of one truncated series
with F_1 as a linear recurrence.  The slope of a cascade is formed stage
by stage with the product of the stages before it carried in, so a
stage's own slope, about 1/p^2 for the geometric wait, never has to be
representable on its own.

A series is carried as its live prefix, up to its last nonzero
coefficient.  A polynomial stage widens it by its degree.  A division by
1 - c(z) (r = deg c) runs on past it until r outputs in a row fall below
2^-1022, the smallest normal double, and sets them and every later output
to 0.  Past its input, each output is at most c(1) < 1 times the largest
of the r before it, so every output set to 0 is below 2^-1022: the cut
loses less than 2^-1022 per coefficient, where no value had relative
accuracy anyway.  A stage costs O(w) for a window of w coefficients
rather than O(k).  A recurrence of order r runs in blocks of B = max(64,
r) coefficients, with one loop of it giving a block's Toeplitz map of its
inputs and its carry of the r outputs the blocks before it leave; a
doubling scan over blocks (Kogge & Stone 1973) hands each block that
state in ceil(log2(w/B)) vectorised steps of r x r products.  Each of
those products runs on chunks of 16 blocks, and a division's window is
its input's live prefix and r more, rounded up to whole chunks, so no
coefficient's bits depend on the window or on k.  A recurrence with
nonnegative coefficients, scan included, adds and never cancels, so
rounding error stays relative to the coefficients it produces; one common
denominator per law would not (expanding (1 - (1-p) z)^m amplifies
rounding by about p^-m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalSingularity
from .model import EdgeDynamics, FailureModel, LengthDist, PathSpec, check_feasible, transient_prob

__all__ = ["ett", "ett_batch", "pmf", "TruncatedPmf"]

_DEN_FLOOR = 1e-300
_PMF_MAX_K = 10_000_000
_BLOCK = 64  # coefficients per block of the blocked IIR recurrence
_EPS = 2.0**-54  # the rows the table drops move the ETT by at most _EPS of it
_TINY = 2.0**-1022  # the smallest normal double: a filter's output is 0 from its first r in a row below it
_ROWS = 16  # rows of every block product: a row's bits then depend on its own inputs alone


def _live(x: np.ndarray) -> int:
    """1 + the index of the last nonzero coefficient of x, 0 if there is none."""
    if x.size and x[-1] != 0.0:
        return x.size
    nonzero = np.flatnonzero(x)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for two live prefixes, new arrays both, written into the longer one."""
    if a.size < b.size:
        a, b = b, a
    a[: b.size] += b
    return a


def _quiet_from(y: np.ndarray, lo: int, r: int) -> int | None:
    """The first t >= lo with y[t : t + r] all below _TINY, or None."""
    quiet = y[lo:] < _TINY
    if quiet.size < r:
        return None
    run = quiet[: quiet.size - r + 1].copy()
    for j in range(1, r):
        run &= quiet[j : j + run.size]
    t = int(run.argmax())
    return lo + t if run[t] else None


def _chunked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an a of whole _ROWS-row chunks, one product of _ROWS rows per chunk."""
    return (a.reshape(-1, _ROWS, a.shape[1]) @ b).reshape(a.shape[0], b.shape[1])


def _guard_den(den) -> None:
    if np.abs(den).min(initial=np.inf) < _DEN_FLOOR:  # an empty grid passes
        raise NumericalSingularity("denominator vanished during PGF evaluation")


# --- per-link laws: PGFs built from nonnegative stages, over a dynamics axis ---


def _stack(rows) -> np.ndarray:
    """Stage coefficients as a (J, D) array: row j is a float or a (D,) array per dynamics."""
    out = np.empty((len(rows), max([getattr(row, "size", 1) for row in rows], default=1)))
    for j, row in enumerate(rows):
        out[j] = row
    return out


def _fsum_cols(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` down each column of a (J, D) array: one correctly rounded sum per dynamics."""
    return np.array([math.fsum(col) for col in rows.T.tolist()])


def _pow(base: np.ndarray, k: int) -> np.ndarray:
    """base ** k by Python's float power per element, as a scalar coefficient would be formed."""
    return np.array([b**k for b in base.tolist()])


def _horner(coeffs, w, live):
    """sum_i coeffs[i] w^i, skipping each row i that ``live[i]`` marks 0 for every dynamics."""
    acc = coeffs[-1]
    for ci, on in zip(coeffs[-2::-1], live[-2::-1]):
        acc = acc * w + ci if on else acc * w
    return acc


class LinkLaw:
    """A PGF written as a cascade of stages with nonnegative coefficients, per dynamics.

    A law holds one set of coefficients per dynamics, along an axis of size
    D (1 where a stage does not depend on the dynamics): each stage keeps
    its coefficients as the rows of a (J, D) array, at every D.  Every law
    has ``value(z)``, its values on an (R, D) grid, column d holding the
    points of dynamics d (for D = 1, on points of any shape, broadcast
    against one row, so a constant law gives one row);
    ``at_one(gain)``, its value at z = 1 and ``gain`` times its slope
    there, per dynamics; and, for D = 1, ``apply(x, size)``, which
    multiplies ``x``, the live prefix of a power series truncated at
    ``size`` coefficients (0 past x), by it and returns the live prefix of
    the product, a new array of at most ``size`` coefficients, cut as the
    module docstring says.  A cascade passes the
    product of the stages before it as the gain, so a stage whose own slope
    would overflow forms only the product, which the ETT adds up.  A law's
    value and slope at 1 are formed once, as ``_one``.
    """

    def at_one(self, gain=1.0):
        value, slope = self._one
        return value, gain * slope


class _Poly(LinkLaw):
    """sum_i a[i] z^i with every a[i] >= 0.

    A polynomial in another law w, sum_i b[i] w^i, is the Horner cascade
    b[0] + w (b[1] + w (... + w b[top])) written with ``_Sum``: the slope
    of each level then comes from the cascade's product rule.
    """

    def __init__(self, a):
        a = _stack(a)
        if (a < 0.0).any():
            raise NumericalSingularity(f"polynomial stage with a negative coefficient: {a.tolist()}")
        self.a, self._live = list(a), a.any(axis=1).tolist()

    def value(self, z):
        return _horner(self.a, z, self._live)

    @cached_property
    def _one(self):
        da = [i * ai for i, ai in enumerate(self.a)][1:] or [0.0]
        return _horner(self.a, 1.0, self._live), _horner(da, 1.0, self._live[1:])

    def apply(self, x, size):
        acc = self.a[-1] * x  # D = 1: each row is one coefficient
        for ai, on in zip(self.a[-2::-1], self._live[-2::-1]):
            acc = np.concatenate(([0.0], acc[: size - 1]))  # times z
            if on:
                acc = _add(acc, ai * x)
        return acc


_Z = _Poly((0.0, 1.0))  # z itself, a one-slot delay


class _Iir(LinkLaw):
    """1 / (1 - c(z)): the recurrence y_t = x_t + sum_j c[j] y_{t-j}.

    Requires, for each dynamics in ``dyns`` (the columns of ``c`` and
    ``slack``, named when one fails), c[0] = 0, every c[j] >= 0 and
    ``slack`` = 1 - c(1) > 0 from a closed form; values use 1 - c(z) =
    slack + sum_j c[j] (1 - z^j), which does not cancel near z = 1.  The
    slope sum_j j c[j] / slack^2 overflows when slack is tiny (about p) even
    where gain times it, with the gain carrying a factor p, does not; with
    slack = m 2^e, (gain (slope / m^2)) 2^(-2e) forms that product with the
    bits of gain (slope / slack^2) wherever those are representable.

    Series (D = 1) are filtered in blocks of B = max(_BLOCK, r)
    coefficients, r = len(c) - 1.  One loop of the recurrence writes each
    output of a block from its inputs, a B x B Toeplitz map, and from the
    last r outputs of block b-1, its state s_{b-1}, a B x r carry.  Then
    s_b = u_b + A s_{b-1}, u_b being block b's own last r outputs and A the
    carry's last r rows.  A doubling scan solves that: step j adds
    A^(2^j) s_{b-2^j} to every s_b at once, squaring A once per step, so
    ceil(log2(k/B)) steps replace a loop over the k/B blocks.  A, its
    powers and the carry are nonnegative, so the scan never cancels.

    Each product over blocks (the Toeplitz map, a scan step, the carry)
    runs on whole chunks of _ROWS blocks, the maps held transposed as right
    factors: BLAS picks its kernel by a product's shape (on the build
    measured, products of 18 rows or fewer rounded some rows unlike longer
    ones), so only a fixed shape gives each row the bits of its own inputs.
    ``apply`` filters the input's live prefix and r more, rounded up to
    whole chunks, and cuts the output at the first r outputs in a row
    below _TINY past the input.  Failing that, each output j r steps on is
    at most c(1)^j times the largest of the window's last r, so the next
    try runs to where that falls below _TINY, rounded up likewise.
    """

    def __init__(self, c, slack, dyns):
        self.c, slack = _stack(c), _stack([slack])[0]
        ok = (len(self.c) >= 2) & (self.c[0] == 0.0) & (self.c >= 0.0).all(axis=0) & (slack > 0.0)
        ok &= np.abs(slack + _fsum_cols(self.c) - 1.0) <= 1e-9
        if not ok.all():
            d = int(np.argmin(ok))
            raise NumericalSingularity(
                f"{dyns[d]}: 1/(1 - c(z)) with c = {self.c[:, d].tolist()}, "
                f"1 - c(1) = {slack[d]} is not a nonnegative recurrence"
            )
        self.slack = slack
        live = self.c.any(axis=1).tolist()
        self._terms = [(j, cj) for j, cj in enumerate(self.c) if live[j]]

    def value(self, z):
        den = self.slack
        for j, cj in self._terms:
            den = den + cj * (1.0 - z**j)
        _guard_den(den)
        return 1.0 / den

    @cached_property
    def _one(self):
        """1 / slack, and the slope as slope / m^2 with the power of 2 to scale it by."""
        slope = _fsum_cols(np.arange(len(self.c))[:, None] * self.c)
        m, e = np.frexp(self.slack)
        return 1.0 / self.slack, slope / (m * m), -2 * e

    def at_one(self, gain=1.0):
        value, scaled, shift = self._one
        return value, np.ldexp(gain * scaled, shift)

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.c.squeeze(1)  # D = 1
        r = c.size - 1
        width = max(_BLOCK, r)
        # Row r + t writes y_t as a map from (the block's inputs x_0..x_{B-1},
        # the previous block's last outputs y_{-r}..y_{-1}); rows 0..r-1 are
        # those outputs themselves.
        y = np.zeros((r + width, width + r))
        y[:r, width:] = np.eye(r)
        for t in range(width):
            y[r + t] = c[r:0:-1] @ y[t : r + t]
            y[r + t, t] += 1.0
        return np.ascontiguousarray(y[r:, :width].T), np.ascontiguousarray(y[r:, width:].T)

    def apply(self, x, size):
        live = _live(x)
        if not live:
            return np.zeros(0)
        r, width = self._blocks[1].shape
        n = live + r  # room for a quiet run past the input
        while True:
            n = min(size, -(-n // (_ROWS * width)) * _ROWS * width)
            y = self._filter(x[:live], n)
            cut = _quiet_from(y, live, r)
            if cut is not None or n == size:
                return y[:cut]
            decay = math.log(_TINY / y[-r:].max()) / math.log1p(-float(self.slack[0]))
            n += r * (int(decay) + 1)  # rounded up, at least a chunk more

    def _filter(self, x, n):
        """The first n outputs for input x (shorter than n, zeros after it), by blocks."""
        toeplitz, carry = self._blocks
        r, width = carry.shape
        nb = -(-n // (_ROWS * width)) * _ROWS  # whole chunks of blocks
        padded = np.zeros(nb * width)
        padded[: x.size] = x
        y = _chunked(padded.reshape(nb, width), toeplitz)
        # The doubling scan: after the step that adds A^d s_{b-d}, s_b sums
        # A^i u_{b-i} over i < 2d.  The last block's state is never read.
        s = y[:, -r:].copy()
        power, d = carry[:, -r:], 1
        while d < nb - 1:
            s[d:] += _chunked(s, power)[:-d]
            power, d = power @ power, 2 * d
        y[1:] += _chunked(s, carry)[:-1]
        return y.reshape(nb * width)[:n]


def _run(reader):
    """The result of a ``_Sum`` reader, a generator that yields the readers of the ``_Sum``s it holds.

    A resume law nests one ``_Sum`` per slot of length: the nested readers
    wait on this list, not on Python's call stack, which would run out.
    """
    stack, got = [reader], None
    while stack:
        try:
            stack.append(stack[-1].send(got))
            got = None
        except StopIteration as done:
            stack.pop()
            got = done.value
    return got


class _Sum(LinkLaw):
    """Sum of cascades: each term is a nonempty tuple of laws applied in turn.

    Its readers are generators under ``_run``; ``value`` reads a law that
    many terms share, as a resume law's levels share w, once per call.
    """

    def __init__(self, *terms: tuple[LinkLaw, ...]):
        self.terms = terms

    @cached_property
    def _one(self):
        return _run(self._at_one())

    def _at_one(self):
        total, slope = 0.0, 0.0
        for term in self.terms:
            v, d = 1.0, 0.0
            for law in term:
                if isinstance(law, _Sum) and "_one" not in vars(law):
                    vars(law)["_one"] = yield law._at_one()  # where cached_property keeps it
                lv, ld = law.at_one(v)  # ld: v times the law's slope
                v, d = v * lv, d * lv + ld
            total, slope = total + v, slope + d
        return total, slope

    def value(self, z):
        return _run(self._value(z, {}))

    def _value(self, z, known):
        prods = []
        for term in self.terms:
            vals = []
            for law in term:
                if law not in known:
                    known[law] = (yield law._value(z, known)) if isinstance(law, _Sum) else law.value(z)
                vals.append(known[law])
            prods.append(math.prod(vals))
        return sum(prods)

    def apply(self, x, size):
        return _run(self._apply(x, size))

    def _apply(self, x, size):
        out = None
        for term in self.terms:
            y = x
            for law in term:
                y = (yield law._apply(y, size)) if isinstance(law, _Sum) else law.apply(y, size)
            out = y if out is None else _add(out, y)  # every law returns a new array
        return out


_ONE = _Poly((1.0,))


@lru_cache(maxsize=32)  # one G_Y stage, and its blocks, per tuple of dynamics
def _gy_law(dyns: tuple[EdgeDynamics, ...]) -> LinkLaw:
    p = np.array([dyn.p for dyn in dyns])
    return _Sum((_Poly((0.0, p)), _Iir((0.0, 1.0 - p), p, dyns)))


def _retry(dyns: tuple[EdgeDynamics, ...], e, success: np.ndarray) -> LinkLaw:
    """1 / (1 - G_Y E) for a failure law E, e[j] weighting z^j, with E(1) = 1 - success.

    Written as 1 + p z E / (1 - c) with c = (1-p) z + p z E, all nonnegative.
    A dynamics with E = 0 gets c = 0 and slack 1, so its column is exactly
    1 as when no dynamics fails, whatever its p.
    """
    e = _stack(e)
    live = e.any(axis=0)
    if not live.any():
        return _ONE
    p = np.array([dyn.p for dyn in dyns])
    pze = _stack([0.0, *(p * e)])
    c = pze.copy()
    c[1] += np.where(live, 1.0 - p, 0.0)
    return _Sum((_ONE,), (_Poly(pze), _Iir(c, np.where(live, p * success, 1.0), dyns)))


# ett_batch reads each length's law once per fill, and pmf once per link: one build while cached.
@lru_cache(maxsize=32)  # per recurrence, an applied law keeps 33 kB of blocks
def link_law(model: FailureModel, dyns: tuple[EdgeDynamics, ...], length: LengthDist) -> LinkLaw:
    """F_1 of one link, the crossing delay given the link is on at arrival, per dynamics in ``dyns``."""
    for dyn in dyns:
        check_feasible(model, dyn, length)
    q = np.array([dyn.q for dyn in dyns])
    top = length.max_value
    atoms = list(zip(length.values, length.probs))
    b = [0.0] * (top + 1)  # b[v] = P(length = v)
    for v, pr in atoms:
        b[v] = pr
    if model is FailureModel.CANT_START:
        return _Poly(b)
    if model is FailureModel.RESUME:
        # Crossing needs v cumulative on-slots: the first takes one slot and
        # each of the v-1 seams after it is a (1-q) pass-through or a
        # q-weighted geometric outage, so F_1 = b[0] + z P(w) with
        # w = (1-q) z + q z G_Y and P(w) = sum_v b[v] w^(v-1).  Horner's rule
        # writes it as one cascade per level, b[i] + (the level above) w,
        # with z in place of w at the bottom; a length of at most one slot
        # has no seam, and the loop gives the can't-start polynomial.
        w = _Sum((_Poly((0.0, 1.0 - q)),), (_Poly((0.0, q)), _gy_law(dyns)))
        law = _Poly(b[-1:])
        for i in range(top - 1, -1, -1):
            step = (law, w) if i else (_Z, law)
            law = _Sum(step, (_Poly((b[i],)),)) if b[i] else _Sum(step)
        return law
    if model is FailureModel.RETRANSMIT_IDENTICAL:
        # Condition on the realized length v.  An attempt survives v slots
        # with probability (1-q)^(v-1); each failure costs the partial on-run
        # W < v plus a geometric repair, giving a rational per-v term
        #   z^v (1-q)^(v-1) / (1 - G_Y(z) E[z^W; W < v]).
        terms = []
        for v, pr in atoms:
            survive = _pow(1.0 - q, max(v - 1, 0))
            win = _Poly([0.0] * v + [pr * survive])
            e = [0.0] + [q * _pow(1.0 - q, i) for i in range(v - 1)]
            terms.append((win, _retry(dyns, e, survive)))
        return _Sum(*terms)
    # RETRANSMIT_RESAMPLED: the renewal equation F_1 = N + G_Y M F_1 with
    # first-attempt win term N and mid-run failure term M, both finite sums
    # because the length support is finite.
    n_poly = [0.0] * (top + 1)
    for v, pr in atoms:
        n_poly[v] = pr * _pow(1.0 - q, max(v - 1, 0))
    m_poly = [0.0] * top
    for w in range(1, top):
        tail = math.fsum(pr for v, pr in atoms if v > w)
        m_poly[w] = q * tail * _pow(1.0 - q, w - 1)
    return _Sum((_Poly(n_poly), _retry(dyns, m_poly, _fsum_cols(_stack(n_poly)))))


def _stop_rows(weight: np.ndarray, abs_beta: np.ndarray, min_len: np.ndarray) -> np.ndarray:
    """Per path, the first row R whose tail of the table weighs at most eps * T_min(n).

    Link i adds weight[i] G_{i-1}(beta) to the ETT, and |G_{i-1}(beta)| =
    |E beta^T_{i-1}| <= |beta|^T_min(i), with T_min(i) the sum of the
    shortest lengths of the first i links.  So taking G_{i-1}(beta) = 0 for
    i >= R moves the ETT by at most sum_{i >= R} weight[i] |beta|^T_min(i),
    and R is the first row where that is at most eps * T_min(n), hence at
    most eps of the ETT.  ``weight`` is (n, m); returns R per path.
    """
    t_min = np.cumsum(min_len)  # T_min(i + 1)
    decayed = weight * abs_beta ** (t_min - min_len)[:, None]
    tails = decayed[::-1].cumsum(axis=0)  # tails[k]: the tail from row n-1-k on
    return (tails > _EPS * t_min[-1]).sum(axis=0)  # tails never fall as k grows


def _distinct(items: list) -> tuple[tuple, np.ndarray]:
    """The distinct items in first-seen order, and each item's position among them.

    Items are grouped by identity first, so an object at many positions is
    hashed and compared once, and then by equality, so equal objects share
    one entry whether or not they are one object.
    """
    ids = list(map(id, items))
    first: dict = {}
    pos = {key: first.setdefault(item, len(first)) for key, item in dict(zip(ids, items)).items()}
    return tuple(first), np.fromiter(map(pos.__getitem__, ids), dtype=np.intp, count=len(ids))


@np.errstate(over="ignore", invalid="ignore")  # the result is checked to be finite at the end
def ett_batch(paths) -> np.ndarray:
    """Per-node expected arrival times for m paths in one table fill.

    The paths must share n, failure model and per-link lengths; their
    dynamics and initial bits may differ.  Returns an (m, n+1) array whose
    row j is ``ett(paths[j])[1]``, bit for bit, as when filled alone.

    Only the latest row of the table G_i(beta^k) is kept, in one (m, R)
    buffer g with a row per path and column k-1 at beta^k: link i reads
    G_{i-1}(beta) from column 0, then overwrites in place the R-1-i columns
    later links read.  R is the ``_stop_rows`` row of the path that needs
    most; links past a path's own R count its G_{i-1}(beta) as 0.  The fill
    costs O(n + R^2), R being about K / (mean shortest length) with K =
    ceil(log eps / log|beta|) (eps = 2^-54), or near n when |beta| = 1 or
    most shortest lengths are 0.  Each length's law is fetched once, its
    dynamics axis being the batch's paths, one column each, or one column
    that broadcasts over them when they share one dynamics (the law ``pmf``
    reads), and gives gamma1 = F_1'(1) and F_1 at the powers of beta per
    path; F_0 = G_Y F_1 there, with G_Y evaluated once for all paths;
    gamma0 = gamma1 + 1/p is never formed.  Repeated length laws and bit
    tuples, equal or one object, are found by ``_distinct`` and each
    distinct one is converted once.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("ett_batch needs at least one path")
    first = paths[0]
    for path in paths[1:]:
        if path.n != first.n or path.model is not first.model or path.lengths != first.lengths:
            raise ValueError("paths in one batch must share n, model and per-link lengths")
    n, model = first.n, first.model
    dyns = tuple(path.dynamics for path in paths)
    law_dyns = dyns[:1] if len(set(dyns)) == 1 else dyns  # one shared dynamics: one column for all
    lengths, li = _distinct(first.lengths)

    m = len(paths)
    p, pi0, pi1, beta = np.array([(dyn.p, dyn.pi0, dyn.pi1, dyn.beta) for dyn in dyns]).T
    xs, xi = _distinct([path.x for path in paths])
    bits = np.array(xs)[xi]
    chi = np.where(bits == 1, -pi0[:, None], pi1[:, None]).T  # chi_i = pi1 (1 - x_i) - pi0 x_i
    weight = np.abs(chi) / p  # |gamma0 - gamma1| |chi_i|: how much of G_{i-1}(beta) the ETT takes
    min_len = np.array([min(ld.values) for ld in lengths])[li]
    stop = _stop_rows(weight, np.abs(beta), min_len)
    rows = int(stop.max())

    # gam1 per (length, path); coef[0] is phi and coef[1] psi, per (length, path, column k-1).
    zs = np.cumprod(np.full((max(rows - 1, 0), m), beta), axis=0)  # row k-1: beta^k per path
    gy = _gy_law(law_dyns).value(zs)
    gam1 = np.empty((len(lengths), m))
    coef = np.empty((2, len(lengths), m, max(rows - 1, 0)))
    for l, ld in enumerate(lengths):
        law = link_law(model, law_dyns, ld)
        gam1[l] = law.at_one()[1]
        f1 = law.value(zs)  # a constant law gives one row
        f0 = gy * f1
        coef[0, l] = (pi0 * f0 + pi1 * f1).T
        coef[1, l] = (f0 - f1).T
    coef_g, coef_shift = list(coef[0]), list(coef[1])

    g = np.ones((m, rows))  # G_0 = 1
    col1 = np.zeros((n, m))
    for i, l in enumerate(li[:rows].tolist()):
        c = rows - 1 - i  # the columns later rows still read
        col1[i] = g[:, 0]
        shift = chi[i, :, None] * coef_shift[l][:, :c]
        shift *= g[:, 1 : c + 1]
        g[:, :c] *= coef_g[l][:, :c]
        g[:, :c] += shift
    # a path's rows past its own stop were filled for paths that stop later
    col1 = np.where(np.arange(n)[:, None] >= stop, 0.0, col1)

    # Link i contributes its state-averaged mean delay pi0 gamma0 + pi1 gamma1
    # plus (gamma0 - gamma1) chi_i G_{i-1}(beta), a correction that measures
    # how far the link's state at the packet's arrival still remembers the
    # initial bit.  With gamma0 = gamma1 + 1/p that is the form below, which
    # never subtracts two terms of size 1/p.
    terms = gam1[li] + (pi0 + chi * col1) / p
    per_node = np.zeros((m, n + 1))
    # cumsum adds in order along its axis, so a path's sums do not depend
    # on the batch around it.
    per_node[:, 1:] = terms.cumsum(axis=0).T
    if not np.all(np.isfinite(per_node)):
        raise NumericalSingularity("an expected arrival time is not finite")
    return per_node


def ett(path: PathSpec) -> tuple[float, np.ndarray]:
    """Expected traversal time and per-node expected arrival times.

    Returns ``(total, per_node)`` with ``per_node[i]`` the expected time the
    packet reaches node i (``per_node[0] = 0``, ``per_node[n] = total``):
    ``ett_batch`` for one path.
    """
    per_node = ett_batch([path])[0]
    return float(per_node[-1]), per_node


@dataclass(frozen=True)
class TruncatedPmf:
    """Latency probabilities Pr(T = t) for t = 0..K plus the unaccounted tail.

    ``pmf`` sets to 0 the outputs of a division stage from its first r in
    a row below 2^-1022 past its input on (module docstring).  Each held
    less than 2^-1022 and every later stage has total mass at most 1, so
    a coefficient moves by less than 2^-1022 per output cut.
    """

    coeffs: np.ndarray
    tail_mass: float

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "TruncatedPmf":
        """Wrap probabilities; a negative or non-finite one raises NumericalSingularity."""
        if not np.all(np.isfinite(coeffs) & (coeffs >= 0.0)):
            raise NumericalSingularity("a latency probability is negative or not finite")
        tail = 1.0 - math.fsum(coeffs[: _live(coeffs)].tolist())  # the zeros past it add nothing
        return cls(coeffs=coeffs, tail_mass=tail)

    @property
    def k(self) -> int:
        return len(self.coeffs) - 1

    def truncated_mean(self) -> float:
        """Mean of the captured mass; a lower bound on the full expectation."""
        return float(np.dot(np.arange(len(self.coeffs)), self.coeffs))


def pmf(path: PathSpec, k: int | None = None) -> TruncatedPmf:
    """Latency distribution Pr(T = t) up to degree ``k``, tail mass reported.

    Runs the arrival recursion G_i = F_1 (g P(x_i -> 1, .) + G_Y (g
    P(x_i -> 0, .))) on one truncated power series g = G_{i-1} (module
    docstring): the part of g that finds link i off goes through G_Y's
    stages, the sum through the link's ``link_law``.  Every factor and
    stage is nonnegative, so its sums never cancel.  g is carried as its
    live prefix, so a link costs O(w) per stage for a window of w
    coefficients (a division's rounded up to whole chunks of 16 blocks),
    the P vectors are formed for one chunk, then at most a quarter past the
    widest window, and the result is padded back to k + 1 coefficients,
    whose bits do not depend on k.  ``k`` defaults to ceil(20 * (ett + 1)).
    """
    if k is None:
        total, _ = ett(path)
        k = max(1, math.ceil(20.0 * (total + 1.0)))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > _PMF_MAX_K:
        raise ConfigurationError(f"k = {k} exceeds the coefficient budget {_PMF_MAX_K}")
    dyn = path.dynamics
    dyns = (dyn,)
    gy_law = _gy_law(dyns)
    size = k + 1
    hi = min(size, _ROWS * _BLOCK)
    found = _found(dyn, 0, hi)
    g = np.ones(1)  # the live prefix of G_0 = 1
    for xi, ld in zip(path.x, path.lengths):
        n = g.size
        if n > hi:
            lo, hi = hi, min(size, max(n, hi + hi // 4))  # a quarter more: few calls, little past n
            found = [np.concatenate(pair) for pair in zip(found, _found(dyn, lo, hi))]
        off, on = found[2 * xi][:n], found[2 * xi + 1][:n]
        start = gy_law.apply(g * off, size)  # the time the packet starts to cross link i:
        start = _add(start, g * on)  # after G_Y's wait, or at once
        g = link_law(path.model, dyns, ld).apply(start, size)
    coeffs = np.zeros(size)
    coeffs[: g.size] = g
    return TruncatedPmf.from_coeffs(coeffs)


def _found(dyn: EdgeDynamics, lo: int, hi: int) -> list[np.ndarray]:
    """P(0 -> 0, t), P(0 -> 1, t), P(1 -> 0, t), P(1 -> 1, t) for t = lo..hi-1.

    Entry 2x is a link started in x found off, entry 2x + 1 found on.
    """
    ts = np.arange(lo, hi)
    return [transient_prob(dyn, x, b, ts) for x in (0, 1) for b in (0, 1)]
