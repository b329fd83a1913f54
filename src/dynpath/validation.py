"""Cross-validation checks tying the analytic engine to its oracles.

Each check compares two independently computed quantities over one grid
and returns, as numbers, how many instances it ran and the worst
deviation it saw.  ``run_validation`` (the ``dynpath validate`` command)
turns them into report lines at the tolerances below; the acceptance
suite runs the same checks against its own pinned tolerances, which its
tests keep equal to these.  The oracle grid is walked once: each grid
point's ETT batch and its paths' pmfs meet one chain and one set of laws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import (
    det_model2_time,
    det_traversal_time,
    max_geom_ett,
    steady_ett,
    steady_pmf_as_printed,
)
from .errors import ConfigurationError
from .model import EdgeDynamics, FailureModel, LengthDist, uniform_path
from .oracle import _MAX_N, det_slot_time, exact_ett_dp, exact_pmf_dp
from .pgf import ett, ett_batch, pmf

GRID_PQ = (0.2, 0.5, 0.8)
GRID_LENGTHS = (
    ("cut", LengthDist.cut()),
    ("soa", LengthDist.soa()),
    ("const2", LengthDist.constant(2)),
    ("const3", LengthDist.constant(3)),
    ("pmf_0_2", LengthDist.from_pairs([(0, 0.5), (2, 0.5)])),
)
_REDUCTION_P = (0.2, 0.3, 0.5, 0.6, 0.7, 0.8)  # p of never-failing and of memoryless links
_STATIONARY_PQ = ((0.2, 0.8), (0.5, 0.5), (0.8, 0.2), (0.3, 0.4), (0.3, 0.6), (0.7, 0.2))
_PMF_K = 40  # last degree of the pmf comparison
_PMF_MAX_N = 4  # longest path of the pmf comparison
_DET_MAX_N = 4  # longest path of the deterministic check that validate runs
REL_TOL_ETT = 1e-9  # generating-function ETT against the chain solve
ABS_TOL_PMF = 1e-10  # pmf coefficients against forward propagation
ABS_TOL_MASS = 1e-9  # captured pmf mass plus tail against 1
TOL_REDUCTION = 1e-9  # general engine against each closed form
_EQ1_T_MAX = 25  # last slot of the printed-versus-exact pmf comparison


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    eq1_rows: list[tuple] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _grid(n: int):
    """Every n-link grid path: one list of all initial configs per (length law, model, p, q)."""
    for (_, ld), model, p, q in itertools.product(GRID_LENGTHS, FailureModel, GRID_PQ, GRID_PQ):
        dyn = EdgeDynamics(p, q)
        yield [uniform_path(x, ld, dyn, model) for x in itertools.product((0, 1), repeat=n)]


def oracle_equivalence(n: int, perturb: float = 0.0) -> tuple[int, float, tuple[float, float] | None]:
    """``ett_batch``, and for n <= 4 ``pmf``, against the joint chain on every n-link grid path.

    At each grid point the ETT batch of its 2^n paths and then each path's
    pmf through degree 40 read one chain and one set of laws.  Returns
    (instances, worst relative ETT error, pmf), pmf being (worst
    coefficient error, worst |captured mass + tail mass - 1|) for n <= 4
    and None above; ``perturb`` is added to each analytic ETT first.
    """
    errs, coeff, mass = [], [], []
    for paths in _grid(n):
        for path, total in zip(paths, ett_batch(paths)[:, -1].tolist()):
            exact = exact_ett_dp(path)
            errs.append(abs(total + perturb - exact) / max(1.0, abs(exact)))
        if n <= _PMF_MAX_N:
            for path in paths:
                series = pmf(path, _PMF_K)
                coeff.append(float(np.max(np.abs(series.coeffs - exact_pmf_dp(path, _PMF_K)))))
                mass.append(abs(math.fsum(series.coeffs.tolist()) + series.tail_mass - 1.0))
    return len(errs), max(errs), (max(coeff), max(mass)) if coeff else None


def max_geometric_reduction() -> tuple[int, float]:
    """``ett`` of never-failing zero-length links, n_hat of them off, against ``max_geom_ett``.

    Returns (instances, worst absolute error).
    """
    errs = []
    for p, n_hat, on in itertools.product(_REDUCTION_P, range(11), (0, 1, 2)):
        if n_hat + on:
            dyn = EdgeDynamics(p, 0.0)
            path = uniform_path((0,) * n_hat + (1,) * on, LengthDist.cut(), dyn, FailureModel.CANT_START)
            errs.append(abs(ett(path)[0] - max_geom_ett(n_hat, p)))
    return len(errs), max(errs)


def _start_weights(n: int, on: float) -> list[tuple[tuple[int, ...], float]]:
    """Each n-link initial configuration with its probability when every link starts on w.p. ``on``."""
    return [
        (x, math.prod(on if b else 1.0 - on for b in x)) for x in itertools.product((0, 1), repeat=n)
    ]


def _average_reduction(pairs, start_on) -> tuple[int, float]:
    """Config-averaged ``ett`` of can't-start grid paths against ``steady_ett``.

    Each link starts on with probability ``start_on(dyn)``.  Returns
    (averages, worst absolute error).
    """
    errs = []
    for (p, q), (_, ld), n in itertools.product(pairs, GRID_LENGTHS, range(1, 5)):
        dyn = EdgeDynamics(p, q)
        starts = _start_weights(n, start_on(dyn))
        paths = [uniform_path(x, ld, dyn, FailureModel.CANT_START) for x, _ in starts]
        avg = sum(w * total for (_, w), total in zip(starts, ett_batch(paths)[:, -1].tolist()))
        errs.append(abs(avg - steady_ett(dyn, [ld] * n)))
    return len(errs), max(errs)


def bernoulli_reduction() -> tuple[int, float]:
    """``_average_reduction`` over memoryless links (q = 1 - p), each on at time 0 w.p. p."""
    return _average_reduction([(p, 1.0 - p) for p in _REDUCTION_P], lambda dyn: dyn.p)


def stationary_reduction() -> tuple[int, float]:
    """``_average_reduction`` over links that start in their stationary law."""
    return _average_reduction(_STATIONARY_PQ, lambda dyn: dyn.pi1)


def deterministic_closed_forms(max_n: int) -> tuple[int, int]:
    """Closed forms against the slot simulator on every p = q = 1 path up to max_n links.

    Covers can't-start and resume with lengths 0-3.  Returns (instances,
    mismatches).
    """
    count = bad = 0
    for n in range(1, max_n + 1):
        lengths = np.indices((4,) * n).reshape(n, -1).T  # every length vector
        for bits in itertools.product((0, 1), repeat=n):
            bits = np.broadcast_to(bits, lengths.shape)
            for model, closed in (
                (FailureModel.CANT_START, det_traversal_time),
                (FailureModel.RESUME, det_model2_time),
            ):
                bad += int(np.count_nonzero(closed(bits, lengths) != det_slot_time(bits, lengths, model)))
                count += len(lengths)
    return count, bad


def oracle_grid_checks(max_n: int, perturb: float = 0.0) -> list[CheckResult]:
    """Report lines of ``oracle_equivalence`` for n = 1..max_n: ETT lines, then pmf lines."""
    ett_lines, pmf_lines = [], []
    for n in range(1, max_n + 1):
        count, worst, dist = oracle_equivalence(n, perturb)
        detail = f"{count} instances, worst rel err {worst:.3e}"
        ett_lines.append(CheckResult(f"oracle_equivalence_n{n}", worst <= REL_TOL_ETT, detail))
        if dist is not None:
            coeff, mass = dist
            detail = f"{count} instances, worst coeff err {coeff:.3e}, worst mass defect {mass:.3e}"
            passed = coeff <= ABS_TOL_PMF and mass <= ABS_TOL_MASS
            pmf_lines.append(CheckResult(f"distribution_equivalence_n{n}", passed, detail))
    return ett_lines + pmf_lines


def reduction_checks() -> list[CheckResult]:
    """Report lines of the three reductions and of the deterministic check through n = 4."""
    out = []
    for check in (max_geometric_reduction, bernoulli_reduction, stationary_reduction):
        _, worst = check()
        out.append(CheckResult(check.__name__, worst <= TOL_REDUCTION, f"worst abs err {worst:.3e}"))
    count, bad = deterministic_closed_forms(_DET_MAX_N)
    out.append(CheckResult("deterministic_closed_forms", bad == 0, f"{count} instances, {bad} mismatches"))
    return out


def eq1_discrepancy_table(max_n: int):
    """Characterize the printed stationary-start pmf against the exact one.

    The exact pmf weights the fixed-start ``exact_pmf_dp`` of every
    initial configuration by its stationary probability.  Returns (rows,
    check): rows hold per-instance deviation summaries and the check pins
    the known zero-mass defect at t = D (the printed sum vanishes there
    while the exact distribution carries pi_on^n).  The deviation itself
    is reported, never asserted.
    """
    rows = []
    pinned_ok = True
    for n in range(1, min(max_n, 3) + 1):
        for p, q in itertools.product((0.3, 0.6), repeat=2):
            dyn = EdgeDynamics(p, q)
            for d in (0, 1, 2):
                ld = LengthDist.constant(d)
                big_d = n * d
                exact = sum(
                    w * exact_pmf_dp(uniform_path(x, ld, dyn, FailureModel.CANT_START), _EQ1_T_MAX)
                    for x, w in _start_weights(n, dyn.pi1)
                )
                dev = 0.0
                t_at = 0
                for t in range(_EQ1_T_MAX + 1):
                    printed = steady_pmf_as_printed(dyn, n, big_d, t)
                    if abs(printed - exact[t]) > dev:
                        dev = abs(printed - exact[t])
                        t_at = t
                printed_at_d = steady_pmf_as_printed(dyn, n, big_d, big_d)
                exact_at_d = exact[big_d]
                rows.append((n, p, q, big_d, dev, t_at, printed_at_d, exact_at_d))
                if printed_at_d != 0.0 or not math.isclose(
                    exact_at_d, dyn.pi1**n, rel_tol=1e-9, abs_tol=1e-12
                ):
                    pinned_ok = False
    check = CheckResult(
        "eq1_zero_mass_at_minimum_latency",
        pinned_ok,
        "printed sum is 0 at t = D while exact mass there is pi_on^n",
    )
    return rows, check


def run_validation(max_n: int, inject_fault: bool = False) -> ValidationReport:
    """Run every validation family up to ``max_n`` links.

    One walk of the oracle grid checks the ETT for n <= max_n and the pmf
    for n <= min(max_n, 4); the closed-form reductions run their own fixed
    grids.  A ``max_n`` of 0 is the empty grid; one below 0 or above the
    exact engine's limit raises ConfigurationError before any check runs.

    ``inject_fault`` perturbs the analytic ETT before comparison; the run
    must then fail, which proves the harness can detect a broken build.
    """
    if max_n < 0:
        raise ConfigurationError(f"max_n must be >= 0, got {max_n}")
    report = ValidationReport()
    if max_n < 1:
        return report
    if max_n > _MAX_N:
        raise ConfigurationError(f"exact engine supports n <= {_MAX_N}, got {max_n}")
    perturb = 1e-3 if inject_fault else 0.0
    report.checks.extend(oracle_grid_checks(max_n, perturb=perturb))
    report.checks.extend(reduction_checks())
    rows, check = eq1_discrepancy_table(max_n)
    report.eq1_rows = rows
    report.checks.append(check)
    return report
