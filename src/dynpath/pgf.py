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
over all their dynamics.

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
law's coefficients are arrays over a dynamics axis of size D, so one law
serves every (p, q) of a sweep.  The same law is read three ways: F_1's
values at powers of beta per dynamics, its slope at z = 1 (the mean delay)
per dynamics and, for one dynamics, the product of one truncated series
with F_1 as a linear recurrence, O(k) per stage.  The slope of a cascade
is formed stage by stage with the product of the stages before it carried
in, so a stage's own slope, about 1/p^2 for the geometric wait, never has
to be representable on its own.  A
recurrence of order r runs in blocks of B = 64 coefficients, with one
loop of it giving a block's Toeplitz map of its inputs and its carry of
the r outputs the blocks before it leave; a doubling scan over blocks
(Kogge & Stone 1973) hands each block that state in ceil(log2(k/B))
vectorised steps of r x r products.  A recurrence with nonnegative
coefficients, scan included, adds and never cancels, so rounding error
stays relative to the coefficients it produces; one common denominator
per law would not (expanding (1 - (1-p) z)^m amplifies rounding by about
p^-m).
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


def _per_dyn(values: np.ndarray):
    """A (D,) array of values per dynamics, or its one value as a float when D = 1."""
    return values if values.size > 1 else float(values[0])


def _rows(coeffs: np.ndarray) -> list:
    """The rows of a (J, D) array, each as ``_per_dyn`` gives it."""
    return coeffs[:, 0].tolist() if coeffs.shape[1] == 1 else list(coeffs)


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
    D (1 where a stage does not depend on the dynamics); a coefficient is a
    (D,) array, or a float when D = 1.  Every law has ``value(z)``, its
    values on an (R, D) grid, column d holding the points of dynamics d
    (for D = 1, on points of any shape, as floats times z would give);
    ``at_one(gain)``, its value at z = 1 and ``gain`` times its slope
    there, per dynamics; and, for D = 1, ``apply(x)``, which multiplies
    ``x``, one truncated power series as a 1-D array, by it and returns
    the product as a new array of the same length.  A cascade passes the
    product of the stages before it as the gain, so a stage whose own slope
    would overflow forms only the product, which the ETT adds up.  A law's
    value and slope at 1 are formed once, as ``_one``.
    """

    def at_one(self, gain=1.0):
        value, slope = self._one
        return value, gain * slope


class _Z(LinkLaw):
    """z itself, a one-slot delay."""

    _one = (1.0, 1.0)

    def value(self, z):
        return z

    def apply(self, x):
        out = np.empty_like(x)
        out[0] = 0.0
        out[1:] = x[:-1]
        return out


class _Poly(LinkLaw):
    """sum_i a[i] w^i with every a[i] >= 0, in a law w that defaults to z."""

    def __init__(self, a, w: LinkLaw = _Z()):
        a = _stack(a)
        if (a < 0.0).any():
            raise NumericalSingularity(f"polynomial stage with a negative coefficient: {a.tolist()}")
        self.a, self.w, self._live = _rows(a), w, a.any(axis=1).tolist()

    def value(self, z):
        return _horner(self.a, self.w.value(z), self._live)

    @cached_property
    def _one(self):
        w1, slope = self.w.at_one()
        da = [i * ai for i, ai in enumerate(self.a)][1:] or [0.0]
        return _horner(self.a, w1, self._live), _horner(da, w1, self._live[1:]) * slope

    def apply(self, x):
        acc = self.a[-1] * x  # D = 1: the coefficients are floats
        for ai in self.a[-2::-1]:
            acc = self.w.apply(acc)
            if ai:
                acc += ai * x
        return acc


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
    output of a block from its inputs, a B x B Toeplitz map (one product
    per block, O(k B) in all), and from the last r outputs of block b-1,
    its state s_{b-1}, a B x r carry.  Then s_b = u_b + A s_{b-1}, u_b being
    block b's own last r outputs and A the carry's last r rows, the r x r
    state map.  A doubling scan solves that recurrence: step j adds
    A^(2^j) s_{b-2^j} to every s_b at once, so ceil(log2(k/B)) steps of
    O(k/B) r x r products each replace a loop over the k/B blocks, squaring
    A once per step.  A, its powers and the carry are nonnegative, so every
    addend is a nonnegative multiple of the input and the scan never
    cancels.
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
        self.slack = _per_dyn(slack)
        live = self.c.any(axis=1).tolist()
        self._terms = [(j, cj) for j, cj in enumerate(_rows(self.c)) if live[j]]

    def value(self, z):
        den = self.slack
        for j, cj in self._terms:
            den = den + cj * (1.0 - z**j)
        _guard_den(den)
        return 1.0 / den

    @cached_property
    def _one(self):
        """1 / slack, and the slope as slope / m^2 with the power of 2 to scale it by."""
        slope = _per_dyn(_fsum_cols(np.arange(len(self.c))[:, None] * self.c))
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
        return y[r:, :width], y[r:, width:]

    def apply(self, x):
        toeplitz, carry = self._blocks
        width, r = carry.shape
        n = x.size
        nb = -(-n // width)
        padded = np.zeros(nb * width)
        padded[:n] = x
        y = padded.reshape(nb, width) @ toeplitz.T
        # The doubling scan: after the step that adds A^d s_{b-d}, s_b sums
        # A^i u_{b-i} over i < 2d.  The last block's state is never read.
        s = y[:-1, -r:].copy()
        power, d = carry[-r:], 1
        while d < len(s):
            s[d:] += s[:-d] @ power.T
            power, d = power @ power, 2 * d
        y[1:] += s @ carry.T
        return y.reshape(nb * width)[:n]


class _Sum(LinkLaw):
    """Sum of cascades: each term is a tuple of laws applied in turn, () being 1."""

    def __init__(self, *terms: tuple[LinkLaw, ...]):
        self.terms = terms

    def value(self, z):
        return sum(math.prod(law.value(z) for law in term) for term in self.terms)

    @cached_property
    def _one(self):
        total, slope = 0.0, 0.0
        for term in self.terms:
            v, d = 1.0, 0.0
            for law in term:
                lv, ld = law.at_one(v)  # ld: v times the law's slope
                v, d = v * lv, d * lv + ld
            total, slope = total + v, slope + d
        return total, slope

    def apply(self, x):
        out = None
        for term in self.terms:
            y = x
            for law in term:
                y = law.apply(y)
            if out is None:
                out = y.copy() if y is x else y  # every law returns a new array
            else:
                out += y
        return out


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
        return _Sum(())
    p = np.array([dyn.p for dyn in dyns])
    pze = _stack([0.0, *(p * e)])
    c = pze.copy()
    c[1] += np.where(live, 1.0 - p, 0.0)
    return _Sum((), (_Poly(pze), _Iir(c, np.where(live, p * success, 1.0), dyns)))


# ett_batch reads each length's law once per fill, and pmf once per link: one build while cached.
@lru_cache(maxsize=32)  # per recurrence, an applied law keeps 33 kB of blocks
def link_law(model: FailureModel, dyns: tuple[EdgeDynamics, ...], length: LengthDist) -> LinkLaw:
    """F_1 of one link, the crossing delay given the link is on at arrival, per dynamics in ``dyns``."""
    for dyn in dyns:
        check_feasible(model, dyn, length)
    q = np.array([dyn.q for dyn in dyns])
    top = length.max_value
    atoms = list(zip(length.values, length.probs))
    if model is FailureModel.CANT_START or (model is FailureModel.RESUME and top <= 1):
        # A resumed crossing of at most one slot has no seam for an outage to
        # interrupt, so it crosses as a can't-start one does.
        b = [0.0] * (top + 1)
        for v, pr in atoms:
            b[v] = pr
        return _Poly(b)
    if model is FailureModel.RESUME:
        # Crossing needs d cumulative on-slots; each of the d-1 seams is a
        # (1-q) pass-through or a q-weighted geometric outage, so
        # F_1 = pr_0 + z P(w) with w = (1-q) z + q z G_Y and P(w) = sum pr_v w^(v-1).
        a = [0.0] * top
        terms = []
        for v, pr in atoms:
            if v == 0:
                terms.append((_Poly((pr,)),))
            else:
                a[v - 1] = pr
        w = _Sum((_Poly((0.0, 1.0 - q)),), (_Poly((0.0, q)), _gy_law(dyns)))
        return _Sum((_Z(), _Poly(a, w)), *terms)
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

    Items are grouped by identity first, so an object shared by many
    positions is hashed and compared once, and the groups are then merged by
    equality.
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
    most shortest lengths are 0.  Each length's law is fetched once, over
    the batch's D distinct dynamics, and gives gamma1 = F_1'(1) and F_1 at
    the powers of beta per dynamics; F_0 = G_Y F_1 there, with G_Y evaluated
    once for all D; gamma0 = gamma1 + 1/p is never formed.  A length law
    many links share as one object (as a parsed config's do) is hashed
    once, and bits shared with the first path (as a sweep's are) are
    converted once.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("ett_batch needs at least one path")
    first = paths[0]
    for path in paths[1:]:
        if path.n != first.n or path.model is not first.model or path.lengths != first.lengths:
            raise ValueError("paths in one batch must share n, model and per-link lengths")
    n, model = first.n, first.model
    dyn_index: dict[EdgeDynamics, int] = {}
    di = [dyn_index.setdefault(path.dynamics, len(dyn_index)) for path in paths]
    dyns = tuple(dyn_index)
    lengths, li = _distinct(first.lengths)

    m = len(paths)
    per_dyn = np.array([(dyn.p, dyn.pi0, dyn.pi1, dyn.beta) for dyn in dyns]).T
    p, pi0, pi1, beta = per_dyn[:, di]  # per path
    x0 = np.array(first.x)  # converted once for the paths that share first's bits, as a sweep's do
    bits = np.array([x0 if path.x is first.x else path.x for path in paths])
    chi = np.where(bits == 1, -pi0[:, None], pi1[:, None]).T  # chi_i = pi1 (1 - x_i) - pi0 x_i
    weight = np.abs(chi) / p  # |gamma0 - gamma1| |chi_i|: how much of G_{i-1}(beta) the ETT takes
    min_len = np.array([min(ld.values) for ld in lengths])[li]
    stop = _stop_rows(weight, np.abs(beta), min_len)
    rows = int(stop.max())

    # gam1 per (length, dynamics); coef[0] is phi and coef[1] psi, per (length, dynamics, column k-1).
    _, pi0_d, pi1_d, beta_d = per_dyn
    zs = np.cumprod(np.full((max(rows - 1, 0), len(dyns)), beta_d), axis=0)  # row k-1: beta^k per dynamics
    gy = _gy_law(dyns).value(zs)
    gam1 = np.empty((len(lengths), len(dyns)))
    coef = np.empty((2, len(lengths), len(dyns), max(rows - 1, 0)))
    for l, ld in enumerate(lengths):
        law = link_law(model, dyns, ld)
        gam1[l] = law.at_one()[1]
        f1 = law.value(zs)  # a constant law gives a float or one row
        f0 = gy * f1
        coef[0, l] = (pi0_d * f0 + pi1_d * f1).T
        coef[1, l] = (f0 - f1).T
    if len(dyns) > 1:
        gam1, coef = gam1[:, di], coef[:, :, di]
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
    """Latency probabilities Pr(T = t) for t = 0..K plus the unaccounted tail."""

    coeffs: np.ndarray
    tail_mass: float

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "TruncatedPmf":
        """Wrap probabilities; a negative or non-finite one raises NumericalSingularity."""
        if not np.all(np.isfinite(coeffs) & (coeffs >= 0.0)):
            raise NumericalSingularity("a latency probability is negative or not finite")
        tail = 1.0 - math.fsum(coeffs.tolist())
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
    stage is nonnegative, so a link costs O(k) per stage and its sums never
    cancel.  When ``k`` is omitted it defaults to ceil(20 * (ett + 1)).
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
    ts = np.arange(k + 1)
    # found[x] = (P(x -> 0, t), P(x -> 1, t)) for t = 0..k: a link started in x found off, on
    found = [(transient_prob(dyn, x, 0, ts), transient_prob(dyn, x, 1, ts)) for x in (0, 1)]
    g = np.zeros(k + 1)
    g[0] = 1.0
    for xi, ld in zip(path.x, path.lengths):
        off, on = found[xi]
        start = gy_law.apply(g * off)  # the time the packet starts to cross link i:
        start += g * on  # after G_Y's wait, or at once
        g = link_law(path.model, dyns, ld).apply(start)
    return TruncatedPmf.from_coeffs(g)
