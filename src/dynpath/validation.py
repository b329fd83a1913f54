"""Cross-validation harness tying the analytic engine to its oracles.

Used by the ``dynpath validate`` command and the acceptance suite.  Each
check compares two independently computed quantities and reports the worst
deviation seen, so a single report line is enough to localize a failure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import (
    det_model2_time,
    det_traversal_time,
    DeterministicPath,
    max_geom_ett,
    steady_ett,
    steady_pmf_as_printed,
)
from .errors import ConfigurationError
from .model import EdgeDynamics, FailureModel, LengthDist, uniform_path
from .oracle import _MAX_N, det_slot_time, exact_ett_dp, exact_pmf_dp
from .pgf import ett, ett_batch

GRID_PQ = (0.2, 0.5, 0.8)
GRID_LENGTHS = (
    ("cut", LengthDist.cut()),
    ("soa", LengthDist.soa()),
    ("const2", LengthDist.constant(2)),
    ("const3", LengthDist.constant(3)),
    ("pmf_0_2", LengthDist.from_pairs([(0, 0.5), (2, 0.5)])),
)
_REL_TOL = 1e-9  # generating-function ETT against the chain solve
_ABS_TOL = 1e-9  # general engine against each closed form
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


def oracle_grid_checks(max_n: int, perturb: float = 0.0) -> list[CheckResult]:
    """Generating-function ETT against the absorbing-chain solve, all configs."""
    out = []
    for n in range(1, max_n + 1):
        worst = 0.0
        count = 0
        for (_, ld), model in itertools.product(GRID_LENGTHS, FailureModel):
            for p, q in itertools.product(GRID_PQ, GRID_PQ):
                dyn = EdgeDynamics(p, q)
                paths = [uniform_path(x, ld, dyn, model) for x in itertools.product((0, 1), repeat=n)]
                for path, total in zip(paths, ett_batch(paths)[:, -1].tolist()):
                    a = total + perturb
                    b = exact_ett_dp(path)
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
                    count += 1
        out.append(
            CheckResult(
                name=f"oracle_equivalence_n{n}",
                passed=worst <= _REL_TOL,
                detail=f"{count} instances, worst rel err {worst:.3e}",
            )
        )
    return out


def _config_average(configs, weights, ld: LengthDist, dyn: EdgeDynamics) -> float:
    """ETT of cant_start paths of constant law ``ld``, averaged over initial configs."""
    paths = [uniform_path(x, ld, dyn, FailureModel.CANT_START) for x in configs]
    return sum(w * total for w, total in zip(weights, ett_batch(paths)[:, -1].tolist()))


def reduction_checks(max_n: int) -> list[CheckResult]:
    """Closed-form specializations recovered from the general engine."""
    out = []

    # never-failing zero-length links: waiting for the slowest appearance
    worst = 0.0
    for n_hat in range(0, min(max_n, 10) + 1):
        n = max(n_hat, 1)
        bits = tuple(0 if i < n_hat else 1 for i in range(n))
        for p in (0.3, 0.7):
            path = uniform_path(bits, LengthDist.cut(), EdgeDynamics(p, 0.0), FailureModel.CANT_START)
            worst = max(worst, abs(ett(path)[0] - max_geom_ett(n_hat, p)))
    out.append(CheckResult("max_geometric_reduction", worst <= _ABS_TOL, f"worst abs err {worst:.3e}"))

    # memoryless links: Bernoulli-weighted average over initial configs
    worst = 0.0
    for n in range(1, min(max_n, 4) + 1):
        configs = list(itertools.product((0, 1), repeat=n))
        for p in (0.3, 0.6):
            dyn = EdgeDynamics(p, 1.0 - p)
            weights = [math.prod(p if b else 1.0 - p for b in x) for x in configs]
            for _, ld in GRID_LENGTHS:
                avg = _config_average(configs, weights, ld, dyn)
                worst = max(worst, abs(avg - steady_ett(dyn, [ld] * n)))
    out.append(CheckResult("bernoulli_reduction", worst <= _ABS_TOL, f"worst abs err {worst:.3e}"))

    # stationary start: pi-weighted average over initial configs
    worst = 0.0
    for n in range(1, min(max_n, 4) + 1):
        configs = list(itertools.product((0, 1), repeat=n))
        for p, q in ((0.3, 0.6), (0.7, 0.2)):
            dyn = EdgeDynamics(p, q)
            weights = [math.prod(dyn.pi1 if b else dyn.pi0 for b in x) for x in configs]
            for _, ld in GRID_LENGTHS:
                avg = _config_average(configs, weights, ld, dyn)
                worst = max(worst, abs(avg - steady_ett(dyn, [ld] * n)))
    out.append(CheckResult("stationary_reduction", worst <= _ABS_TOL, f"worst abs err {worst:.3e}"))

    # alternating-link closed forms against the slot simulator
    bad = 0
    count = 0
    for n in range(1, min(max_n, 4) + 1):
        for bits in itertools.product((0, 1), repeat=n):
            for lengths in itertools.product((0, 1, 2, 3), repeat=n):
                dp = DeterministicPath(bits, lengths)
                count += 1
                if det_traversal_time(dp) != det_slot_time(bits, lengths, FailureModel.CANT_START):
                    bad += 1
                if all(d >= 1 for d in lengths) and det_model2_time(dp) != det_slot_time(
                    bits, lengths, FailureModel.RESUME
                ):
                    bad += 1
    out.append(CheckResult("deterministic_closed_forms", bad == 0, f"{count} instances, {bad} mismatches"))
    return out


def eq1_discrepancy_table(max_n: int):
    """Characterize the printed stationary-start pmf against the exact one.

    Returns (rows, check): rows hold per-instance deviation summaries and
    the check pins the known zero-mass defect at t = D (the printed sum
    vanishes there while the exact distribution carries pi_on^n).  The
    deviation itself is reported, never asserted.
    """
    rows = []
    pinned_ok = True
    for n in range(1, min(max_n, 3) + 1):
        for p, q in itertools.product((0.3, 0.6), repeat=2):
            dyn = EdgeDynamics(p, q)
            for d in (0, 1, 2):
                ld = LengthDist.constant(d)
                big_d = n * d
                path = uniform_path((1,) * n, ld, dyn, FailureModel.CANT_START)
                exact = exact_pmf_dp(path, _EQ1_T_MAX, initial="stationary")
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

    A ``max_n`` above the exact engine's limit raises ConfigurationError
    before any check runs.

    ``inject_fault`` perturbs the analytic ETT before comparison; the run
    must then fail, which proves the harness can detect a broken build.
    """
    report = ValidationReport()
    if max_n < 1:
        return report
    if max_n > _MAX_N:
        raise ConfigurationError(f"exact engine supports n <= {_MAX_N}, got {max_n}")
    perturb = 1e-3 if inject_fault else 0.0
    report.checks.extend(oracle_grid_checks(max_n, perturb=perturb))
    report.checks.extend(reduction_checks(max_n))
    rows, check = eq1_discrepancy_table(max_n)
    report.eq1_rows = rows
    report.checks.append(check)
    return report
