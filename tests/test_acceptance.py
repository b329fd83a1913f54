"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances are pinned here.  Criteria 1, 2, 4 and 5 run the
checks of ``dynpath.validation``, the ones ``dynpath validate`` reports,
and judge the numbers they return; ``tests/test_cli.py`` keeps the
command's own tolerances equal to these.  Criteria 1 and 2 judge one
walk of the oracle grid, shared by the module, and the ETT budget times
that walk, pmf comparison included.
"""

import itertools
import time

import numpy as np
import pytest

from dynpath import validation
from dynpath.model import EdgeDynamics, FailureModel, LengthDist, PathSpec, uniform_path
from dynpath.oracle import det_slot_time, mc_estimate
from dynpath.pgf import ett, link_law, pmf
from dynpath.validation import (
    GRID_LENGTHS,
    GRID_PQ,
    bernoulli_reduction,
    deterministic_closed_forms,
    eq1_discrepancy_table,
    max_geometric_reduction,
    oracle_equivalence,
    stationary_reduction,
)

PQ_PAIRS = list(itertools.product(GRID_PQ, repeat=2))
LENGTHS = [ld for _, ld in GRID_LENGTHS]

REL_TOL_ETT = 1e-9
ABS_TOL_PMF = 1e-10
ABS_TOL_MASS = 1e-9
TOL_REDUCTION = 1e-9
PMF_K = 40  # last degree of the distribution comparison
TOL_F1F0 = 1e-12
TOL_GAMMA = 1e-9
TOL_MODEL_EQUIV = 1e-10
TOL_CASE_COLLAPSE = 1e-12
BUDGET_ORACLE_S = 60.0
BUDGET_MC_S = 120.0
BUDGET_PERF_S = 2.0


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def oracle_walk():
    """One timed walk of the oracle grid, n = 1..5, with the pmf checked through n = 4."""
    start = time.perf_counter()
    rows = [oracle_equivalence(n) for n in range(1, 6)]
    return rows, time.perf_counter() - start


def test_criterion_1_oracle_equivalence(oracle_walk):
    rows, elapsed = oracle_walk
    count, worst = sum(row[0] for row in rows), max(row[1] for row in rows)
    ok = worst <= REL_TOL_ETT and elapsed <= BUDGET_ORACLE_S
    _report(1, "oracle equivalence", ok, f"{count} instances, worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_distribution_equivalence(oracle_walk):
    assert validation._PMF_K == PMF_K
    rows, _ = oracle_walk
    checked = [(count, dist) for count, _, dist in rows if dist is not None]
    assert len(checked) == 4  # n = 1..4
    count = sum(count for count, _ in checked)
    worst = max(dist[0] for _, dist in checked)
    worst_mass = max(dist[1] for _, dist in checked)
    ok = worst <= ABS_TOL_PMF and worst_mass <= ABS_TOL_MASS
    _report(
        2,
        "distribution equivalence",
        ok,
        f"{count} instances, worst coeff err {worst:.3e}, worst mass defect {worst_mass:.3e}",
    )


def test_criterion_3_monte_carlo_concordance():
    pmf02 = LengthDist.from_pairs([(0, 0.5), (2, 0.5)])
    instances = [
        ((1,), LengthDist.cut(), 0.2, 0.5, FailureModel.CANT_START, 101),
        ((0,), LengthDist.cut(), 0.2, 0.2, FailureModel.CANT_START, 102),
        ((0,), LengthDist.constant(3), 0.5, 0.8, FailureModel.RESUME, 103),
        ((1,), LengthDist.constant(2), 0.3, 0.6, FailureModel.RETRANSMIT_IDENTICAL, 104),
        ((0, 1), LengthDist.soa(), 0.5, 0.5, FailureModel.CANT_START, 105),
        ((0, 0), LengthDist.cut(), 0.25, 0.25, FailureModel.CANT_START, 106),
        ((1, 0), pmf02, 0.4, 0.3, FailureModel.RESUME, 107),
        ((1, 1), LengthDist.constant(2), 0.8, 0.8, FailureModel.RETRANSMIT_RESAMPLED, 108),
        ((0, 1, 0), LengthDist.soa(), 0.3, 0.2, FailureModel.CANT_START, 109),
        ((1, 0, 1), pmf02, 0.3, 0.6, FailureModel.RETRANSMIT_IDENTICAL, 110),
        ((0, 0, 1), LengthDist.constant(2), 0.2, 0.8, FailureModel.RESUME, 111),
        ((1, 1, 1), LengthDist.constant(3), 0.5, 0.2, FailureModel.RETRANSMIT_RESAMPLED, 112),
        ((0, 1, 1, 0), LengthDist.cut(), 0.5, 0.8, FailureModel.CANT_START, 113),
        ((1, 0, 0, 1), LengthDist.soa(), 0.8, 0.5, FailureModel.RESUME, 114),
        ((0, 0, 0, 0), pmf02, 0.5, 0.5, FailureModel.CANT_START, 115),
        ((1, 1, 0, 1), LengthDist.constant(2), 0.6, 0.4, FailureModel.RETRANSMIT_IDENTICAL, 116),
        ((0, 1, 0, 1, 1), LengthDist.cut(), 0.3, 0.3, FailureModel.CANT_START, 117),
        ((1, 0, 1, 1, 0), LengthDist.soa(), 0.4, 0.6, FailureModel.RESUME, 118),
        ((0, 0, 1, 0, 1), pmf02, 0.6, 0.3, FailureModel.RETRANSMIT_RESAMPLED, 119),
        ((1, 1, 1, 1, 1), LengthDist.constant(2), 0.2, 0.2, FailureModel.RESUME, 120),
    ]
    assert len(instances) == 20
    start = time.perf_counter()
    worst_ratio = 0.0
    for bits, length, p, q, model, seed in instances:
        path = uniform_path(bits, length, EdgeDynamics(p, q), model)
        result = mc_estimate(path, 10**6, seed=seed)
        expected = ett(path)[0]
        ratio = abs(result.mean - expected) / result.stderr if result.stderr else 0.0
        worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 4.0 and elapsed <= BUDGET_MC_S
    _report(
        3,
        "monte carlo concordance",
        ok,
        f"20 instances x 1e6 samples, worst |mean-ett|/stderr {worst_ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_4_closed_form_reductions():
    # (a) never-failing zero-length links: max of geometric appearance times
    _, worst_a = max_geometric_reduction()
    # (b) memoryless chains: Bernoulli-weighted configuration average
    _, worst_b = bernoulli_reduction()
    # (c) stationary start: pi-weighted configuration average
    _, worst_c = stationary_reduction()
    ok = max(worst_a, worst_b, worst_c) <= TOL_REDUCTION
    _report(
        4,
        "closed-form reductions",
        ok,
        f"max-geom {worst_a:.3e}, bernoulli {worst_b:.3e}, stationary {worst_c:.3e}",
    )


def test_criterion_5_deterministic_setting():
    # every instance through n = 8: can't-start and resume, lengths 0-3
    count, mismatches = deterministic_closed_forms(8)
    # regression-lock the recorded counterexamples to the simplified printed
    # forms "2n - k + 1" (unit lengths) and "2D - k + 1" (resume model)
    sim_soa = det_slot_time((1, 1), (1, 1), FailureModel.CANT_START)
    recorded_soa_form = 2 * 2 - 0 + 1  # n = 2, k = 0
    sim_m2 = det_slot_time((1,), (1,), FailureModel.RESUME)
    recorded_m2_form = 2 * 1 - 0 + 1  # D = 1, k = 0
    locked = sim_soa == 3 and recorded_soa_form == 5 and sim_m2 == 1 and recorded_m2_form == 3
    ok = mismatches == 0 and locked
    _report(
        5,
        "deterministic setting",
        ok,
        f"{count} instances exhaustive n<=8 d<=3, {mismatches} mismatches, "
        f"known-bad shortcuts disagree as recorded: {locked}",
    )


def test_criterion_6_printed_stationary_pmf_characterization():
    table, _ = eq1_discrepancy_table(3)
    rows = len(table)
    max_dev = max(row[4] for row in table)
    # the pinned defect: zero printed mass at the minimum latency
    pinned = all(
        printed_at_d == 0.0 and abs(exact_at_d - EdgeDynamics(p, q).pi1**n) <= 1e-9
        for n, p, q, _, _, _, printed_at_d, exact_at_d in table
    )
    ok = rows == 36 and pinned
    _report(
        6,
        "printed stationary pmf characterization",
        ok,
        f"{rows} report rows, max |printed - exact| = {max_dev:.6f} (recorded, not asserted), "
        f"t=D zero-mass defect pinned: {pinned}",
    )


def test_criterion_7_structural_identities():
    lengths_pool = LENGTHS + [LengthDist.from_pairs([(1, 0.25), (3, 0.75)])]
    z_grid = np.linspace(-1.0, 1.0, 41)
    # (i) off-arrival factorization F0 = G_Y F1.  A one-link path's arrival
    # PGF is F0 when the link starts off and F1 when it starts on, so the
    # first pmf is Geom(p) convolved with the second.
    rng = np.random.default_rng(90210)
    models = list(FailureModel)
    k = 40
    worst_f1f0 = 0.0
    for _ in range(200):
        model = models[rng.integers(len(models))]
        dyn = EdgeDynamics(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 0.95)))
        length = lengths_pool[rng.integers(len(lengths_pool))]
        rng.uniform(-1.0, 1.0)  # an unused z, drawn so each draw keeps its model, dynamics and length
        f0 = pmf(PathSpec((0,), (length,), dyn, model), k).coeffs
        f1 = pmf(PathSpec((1,), (length,), dyn, model), k).coeffs
        geom = np.zeros(k + 1)
        geom[1:] = dyn.p * (1.0 - dyn.p) ** np.arange(k)  # Pr(Y = t) = (1-p)^(t-1) p
        worst_f1f0 = max(worst_f1f0, float(np.max(np.abs(f0 - np.convolve(geom, f1)[: k + 1]))))
    # (ii) mean gap gamma0 - gamma1 = 1/p, the ETTs of a one-link path
    # that starts off and on
    worst_gap = 0.0
    for model in FailureModel:
        for p, q in PQ_PAIRS:
            dyn = EdgeDynamics(p, q)
            for length in lengths_pool:
                gamma0 = ett(PathSpec((0,), (length,), dyn, model))[0]
                gamma1 = ett(PathSpec((1,), (length,), dyn, model))[0]
                worst_gap = max(worst_gap, abs(gamma0 - gamma1 - 1.0 / p))
    # (iii) failure models coincide when every length is 0 or 1
    worst_equiv = 0.0
    mixed = (LengthDist.cut(), LengthDist.soa(), LengthDist.from_pairs([(0, 0.3), (1, 0.7)]))
    for p, q in ((0.3, 0.6), (0.7, 0.2)):
        dyn = EdgeDynamics(p, q)
        for x in itertools.product((0, 1), repeat=3):
            values = [ett(PathSpec(x, mixed, dyn, model))[0] for model in FailureModel]
            worst_equiv = max(worst_equiv, max(values) - min(values))
    # (iv) identical and resampled retransmission agree on constant lengths
    worst_collapse = 0.0
    for p, q in ((0.4, 0.7), (0.8, 0.3)):
        dyn = EdgeDynamics(p, q)
        for d in (0, 1, 2, 3):
            fa = link_law(FailureModel.RETRANSMIT_IDENTICAL, (dyn,), LengthDist.constant(d)).value(z_grid)
            fb = link_law(FailureModel.RETRANSMIT_RESAMPLED, (dyn,), LengthDist.constant(d)).value(z_grid)
            worst_collapse = max(worst_collapse, float(np.max(np.abs(fa - fb))))
    # ... and differ somewhere for a two-point length distribution
    two_point = LengthDist.from_pairs([(1, 0.5), (3, 0.5)])
    dyn = EdgeDynamics(0.4, 0.7)
    fa = link_law(FailureModel.RETRANSMIT_IDENTICAL, (dyn,), two_point).value(z_grid)
    fb = link_law(FailureModel.RETRANSMIT_RESAMPLED, (dyn,), two_point).value(z_grid)
    differs = float(np.max(np.abs(fa - fb))) > 1e-6
    # (v) resampled retransmission with unit lengths reduces to F1(z) = z
    worst_unit = 0.0
    for p, q in ((0.3, 0.2), (0.6, 0.9), (0.5, 1.0)):
        dyn = EdgeDynamics(p, q)
        f1 = link_law(FailureModel.RETRANSMIT_RESAMPLED, (dyn,), LengthDist.soa()).value(z_grid)
        worst_unit = max(worst_unit, float(np.max(np.abs(f1 - z_grid))))
    ok = (
        worst_f1f0 <= TOL_F1F0
        and worst_gap <= TOL_GAMMA
        and worst_equiv <= TOL_MODEL_EQUIV
        and worst_collapse <= TOL_CASE_COLLAPSE
        and differs
        and worst_unit <= TOL_CASE_COLLAPSE
    )
    _report(
        7,
        "structural identities",
        ok,
        f"F0=GY*F1 {worst_f1f0:.2e}, gamma gap {worst_gap:.2e}, model equiv {worst_equiv:.2e}, "
        f"case collapse {worst_collapse:.2e}, two-point differs {differs}, unit reduction {worst_unit:.2e}",
    )


def _perf_path(n: int) -> PathSpec:
    bits = tuple((i % 2) for i in range(n))
    lengths = tuple(LengthDist.constant(i % 3) for i in range(n))
    return PathSpec(bits, lengths, EdgeDynamics(0.3, 0.2), FailureModel.CANT_START)


def test_criterion_8_performance():
    big = _perf_path(2000)
    half = _perf_path(1000)
    ett(half)  # warm caches and numpy pools
    t_half = min(_timed(half) for _ in range(3))
    t_big = min(_timed(big) for _ in range(3))
    ratio = t_big / t_half if t_half > 0 else float("inf")
    ok = t_big <= BUDGET_PERF_S and ratio <= 5.0
    _report(
        8,
        "performance",
        ok,
        f"n=2000 ett in {t_big:.3f}s (budget {BUDGET_PERF_S}s), n=2000/n=1000 ratio {ratio:.2f}",
    )


def _timed(path: PathSpec) -> float:
    start = time.perf_counter()
    ett(path)
    return time.perf_counter() - start
