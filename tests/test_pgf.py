"""The generating-function engine: per-link PGFs, table recursion, ETT, pmf."""

import itertools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import ABS_TOL_MASS, ABS_TOL_PMF, REL_TOL_ETT

from dynpath.closedform import max_geom_ett, steady_ett
from dynpath.errors import InfiniteExpectation, NumericalSingularity
from dynpath import pgf as pgf_module
from dynpath.model import EdgeDynamics, FailureModel, LengthDist, PathSpec, uniform_path
from dynpath.oracle import exact_ett_dp, exact_pmf_dp
from dynpath.pgf import TruncatedPmf, ett, ett_batch, link_law, pmf
from dynpath.pgf import _gy_law, _Iir, _Poly

ALL_LENGTHS = [
    LengthDist.cut(),
    LengthDist.soa(),
    LengthDist.constant(2),
    LengthDist.constant(3),
    LengthDist.from_pairs([(0, 0.5), (2, 0.5)]),
    LengthDist.from_pairs([(1, 0.25), (3, 0.75)]),
]
Z_GRID = np.linspace(-1.0, 1.0, 21)


def geom_pgf(p, z):
    """G_Y(z) = p z / (1 - (1-p) z), the PGF of the Geom(p) off-period wait, written out."""
    return p * z / (1.0 - (1.0 - p) * z)


def f0_f1(model, dyn, length, z):
    """(F_0(z), F_1(z)) of one link: F_1 from its law, F_0 = G_Y F_1."""
    f1 = link_law(model, (dyn,), length).value(np.asarray(z, dtype=float))
    return geom_pgf(dyn.p, z) * f1, f1


class TestGy:
    def test_normalization(self):
        assert _gy_law((EdgeDynamics(0.37, 0.2),)).value(1.0) == pytest.approx(1.0)

    def test_waits_at_least_one_slot(self):
        assert _gy_law((EdgeDynamics(0.37, 0.2),)).value(0.0) == 0.0

    def test_geometric_series_value(self):
        assert _gy_law((EdgeDynamics(0.25, 0.25),)).value(0.5) == pytest.approx(0.2)


class TestFPair:
    def test_cant_start_unit_link(self):
        f0, f1 = f0_f1(FailureModel.CANT_START, EdgeDynamics(0.5, 0.5), LengthDist.soa(), 0.5)
        assert f1 == pytest.approx(0.5)
        assert f0 == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize(
        "model", [FailureModel.RETRANSMIT_IDENTICAL, FailureModel.RETRANSMIT_RESAMPLED]
    )
    @pytest.mark.parametrize("p,q", [(0.3, 0.2), (0.7, 0.9), (0.5, 1.0)])
    def test_retransmit_unit_link_reduces_to_z(self, model, p, q):
        dyn = EdgeDynamics(p, q)
        f0, f1 = f0_f1(model, dyn, LengthDist.soa(), Z_GRID)
        np.testing.assert_allclose(f1, Z_GRID, atol=1e-12)
        expected_f0 = p * Z_GRID**2 / (1.0 - (1.0 - p) * Z_GRID)
        np.testing.assert_allclose(f0, expected_f0, atol=1e-12)

    @pytest.mark.parametrize(
        "model", [FailureModel.RETRANSMIT_IDENTICAL, FailureModel.RETRANSMIT_RESAMPLED]
    )
    def test_retransmit_zero_link_reduces_to_one(self, model):
        dyn = EdgeDynamics(0.4, 0.6)
        f0, f1 = f0_f1(model, dyn, LengthDist.cut(), Z_GRID)
        np.testing.assert_allclose(f1, np.ones_like(Z_GRID), atol=1e-12)
        np.testing.assert_allclose(f0, geom_pgf(dyn.p, Z_GRID), atol=1e-12)

    def test_off_arrival_factorizes_through_wait(self):
        # F0 = G_Y * F1 across 200 random (model, p, q, length, z) tuples: the
        # engine's G_Y at z, and a one-link path's pmf found off against
        # Geom(p) convolved with its pmf found on.
        rng = np.random.default_rng(61524)
        models = list(FailureModel)
        k = 40
        for _ in range(200):
            model = models[rng.integers(len(models))]
            p = float(rng.uniform(0.05, 1.0))
            q = float(rng.uniform(0.0, 0.95))
            length = ALL_LENGTHS[rng.integers(len(ALL_LENGTHS))]
            z = float(rng.uniform(-1.0, 1.0))
            dyn = EdgeDynamics(p, q)
            assert abs(_gy_law((dyn,)).value(z) - geom_pgf(p, z)) <= 1e-12
            f0 = pmf(PathSpec((0,), (length,), dyn, model), k).coeffs
            f1 = pmf(PathSpec((1,), (length,), dyn, model), k).coeffs
            geom = np.zeros(k + 1)
            geom[1:] = p * (1.0 - p) ** np.arange(k)
            assert np.max(np.abs(f0 - np.convolve(geom, f1)[: k + 1])) <= 1e-12

    @pytest.mark.parametrize("model", list(FailureModel))
    @pytest.mark.parametrize("length", ALL_LENGTHS)
    def test_normalization_at_one(self, model, length):
        dyn = EdgeDynamics(0.35, 0.45)
        law = link_law(model, (dyn,), length)
        assert law.value(1.0) == pytest.approx(1.0, abs=1e-12)
        assert law.at_one()[0] == pytest.approx(1.0, abs=1e-12)
        assert _gy_law((dyn,)).value(1.0) * law.value(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_divergent_retransmit_rejected(self):
        dyn = EdgeDynamics(0.5, 1.0)
        for model in (FailureModel.RETRANSMIT_IDENTICAL, FailureModel.RETRANSMIT_RESAMPLED):
            with pytest.raises(InfiniteExpectation):
                link_law(model, (dyn,), LengthDist.constant(2))

    def test_case_collapse_for_constant_lengths(self):
        dyn = EdgeDynamics(0.4, 0.7)
        for d in (0, 1, 2, 3):
            fa = link_law(FailureModel.RETRANSMIT_IDENTICAL, (dyn,), LengthDist.constant(d)).value(Z_GRID)
            fb = link_law(FailureModel.RETRANSMIT_RESAMPLED, (dyn,), LengthDist.constant(d)).value(Z_GRID)
            np.testing.assert_allclose(fa, fb, atol=1e-12)

    def test_cases_differ_for_two_point_lengths(self):
        dyn = EdgeDynamics(0.4, 0.7)
        length = LengthDist.from_pairs([(1, 0.5), (3, 0.5)])
        fa = link_law(FailureModel.RETRANSMIT_IDENTICAL, (dyn,), length).value(Z_GRID)
        fb = link_law(FailureModel.RETRANSMIT_RESAMPLED, (dyn,), length).value(Z_GRID)
        assert np.max(np.abs(fa - fb)) > 1e-6


def gamma1(model, dyn, length):
    """F_1'(1), the mean crossing delay of a link found on."""
    return link_law(model, (dyn,), length).at_one()[1]


class TestGammaPair:
    def test_examples(self):
        d5 = EdgeDynamics(0.5, 0.5)
        assert gamma1(FailureModel.CANT_START, d5, LengthDist.constant(2)) == 2.0
        assert gamma1(FailureModel.RESUME, d5, LengthDist.constant(2)) == pytest.approx(3.0)
        for model in (FailureModel.RETRANSMIT_IDENTICAL, FailureModel.RETRANSMIT_RESAMPLED):
            for dyn in (EdgeDynamics(0.3, 0.4), EdgeDynamics(0.9, 0.1)):
                assert gamma1(model, dyn, LengthDist.soa()) == pytest.approx(1.0)

    @pytest.mark.parametrize("model", list(FailureModel))
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_off_on_gap_is_inverse_p(self, model, p, q):
        # gamma0 and gamma1 are the ETTs of a one-link path that starts off and on.
        dyn = EdgeDynamics(p, q)
        for length in ALL_LENGTHS:
            g0 = ett(PathSpec((0,), (length,), dyn, model))[0]
            g1 = ett(PathSpec((1,), (length,), dyn, model))[0]
            assert g1 == gamma1(model, dyn, length)
            assert g0 - g1 == pytest.approx(1.0 / p, abs=1e-9)
            assert g1 >= length.mean() - 1e-12

    @pytest.mark.parametrize("model", list(FailureModel))
    @pytest.mark.parametrize("length", ALL_LENGTHS)
    def test_matches_finite_difference(self, model, length):
        dyn = EdgeDynamics(0.45, 0.35)
        h = 1e-5
        law = link_law(model, (dyn,), length)
        up = law.value(np.array([1.0 + h]))
        down = law.value(np.array([1.0 - h]))
        fd = float(np.squeeze((up - down) / (2.0 * h)))
        assert gamma1(model, dyn, length) == pytest.approx(fd, abs=1e-5)

    def test_divergent_retransmit_rejected(self):
        with pytest.raises(InfiniteExpectation):
            gamma1(FailureModel.RETRANSMIT_IDENTICAL, EdgeDynamics(0.5, 1.0), LengthDist.constant(3))

    @pytest.mark.parametrize("p,q", [(0.999999, 0.999999), (1e-4, 0.9999), (0.5, 0.99)])
    def test_case_collapse_near_q_one(self, p, q):
        # For a constant length both retransmit models have the same law.
        # Near q = 1 the per-attempt success (1-q)^(d-1) is tiny, and taking
        # it as 1 minus the failure weight cancels every digit (at
        # p = q = 0.999999 that difference is exactly 0).
        dyn = EdgeDynamics(p, q)
        for d in (2, 3, 4):
            ident = gamma1(FailureModel.RETRANSMIT_IDENTICAL, dyn, LengthDist.constant(d))
            resampled = gamma1(FailureModel.RETRANSMIT_RESAMPLED, dyn, LengthDist.constant(d))
            assert resampled == pytest.approx(ident, rel=1e-12)


class TestEtt:
    def test_single_on_unit_link(self):
        for dyn in (EdgeDynamics(0.2, 0.9), EdgeDynamics(0.8, 0.1)):
            path = uniform_path((1,), LengthDist.soa(), dyn, FailureModel.CANT_START)
            assert ett(path)[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_worked_two_link_paths(self):
        path = uniform_path((1, 0), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        assert ett(path)[0] == pytest.approx(2.0, abs=1e-12)
        path = uniform_path((0, 0), LengthDist.cut(), EdgeDynamics(0.25, 0.25), FailureModel.CANT_START)
        assert ett(path)[0] == pytest.approx(6.4, abs=1e-12)

    def test_per_node_accumulates(self):
        path = uniform_path(
            (0, 1, 0), LengthDist.constant(2), EdgeDynamics(0.4, 0.3), FailureModel.RESUME
        )
        total, per_node = ett(path)
        assert per_node[0] == 0.0
        assert per_node[-1] == pytest.approx(total)
        assert np.all(np.diff(per_node) > 0)

    def test_matches_absorbing_chain_small_grid(self):
        for n in (1, 2, 3):
            for length in (LengthDist.cut(), LengthDist.constant(2)):
                for model in FailureModel:
                    dyn = EdgeDynamics(0.35, 0.55)
                    for x in itertools.product((0, 1), repeat=n):
                        path = uniform_path(x, length, dyn, model)
                        expected = exact_ett_dp(path)
                        assert ett(path)[0] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_model_equivalence_for_unit_and_zero_lengths(self):
        # with every length in {0, 1} an interrupted crossing cannot exist
        lengths = (
            LengthDist.cut(),
            LengthDist.soa(),
            LengthDist.from_pairs([(0, 0.3), (1, 0.7)]),
        )
        dyn = EdgeDynamics(0.45, 0.65)
        for x in itertools.product((0, 1), repeat=3):
            results = [
                ett(PathSpec(x, lengths, dyn, model))[0] for model in FailureModel
            ]
            assert max(results) - min(results) <= 1e-10

    def test_never_failing_links_reduce_to_max_of_geometrics(self):
        p = 0.3
        dyn = EdgeDynamics(p, 0.0)
        for n_hat in range(0, 11):
            bits = tuple([0] * n_hat + [1] * 2)
            path = uniform_path(bits, LengthDist.cut(), dyn, FailureModel.CANT_START)
            assert ett(path)[0] == pytest.approx(max_geom_ett(n_hat, p), abs=1e-9)

    def test_memoryless_average_reduces_to_bernoulli(self):
        p = 0.4
        dyn = EdgeDynamics(p, 1.0 - p)
        length = LengthDist.constant(2)
        n = 3
        avg = 0.0
        for x in itertools.product((0, 1), repeat=n):
            w = math.prod(p if b else 1.0 - p for b in x)
            avg += w * ett(uniform_path(x, length, dyn, FailureModel.CANT_START))[0]
        assert avg == pytest.approx(steady_ett(dyn, [length] * n), abs=1e-9)

    def test_stationary_average_reduces_to_steady_state(self):
        dyn = EdgeDynamics(0.6, 0.2)
        length = LengthDist.soa()
        n = 3
        avg = 0.0
        for x in itertools.product((0, 1), repeat=n):
            w = math.prod(dyn.pi1 if b else dyn.pi0 for b in x)
            avg += w * ett(uniform_path(x, length, dyn, FailureModel.CANT_START))[0]
        assert avg == pytest.approx(steady_ett(dyn, [length] * n), abs=1e-9)

    def test_divergent_configuration_raises(self):
        path = uniform_path(
            (1,), LengthDist.constant(2), EdgeDynamics(0.5, 1.0), FailureModel.RETRANSMIT_RESAMPLED
        )
        with pytest.raises(InfiniteExpectation):
            ett(path)

    @staticmethod
    def _rare_on_resume(p):
        lengths = (LengthDist.constant(2), LengthDist.soa())
        return PathSpec((0, 1), lengths, EdgeDynamics(p, 0.5), FailureModel.RESUME)

    @pytest.mark.parametrize("p", [1e-158, 1e-170, 1e-300])
    def test_tiny_p_matches_absorbing_chain(self, p):
        # G_Y's slope (1-p)/p^2 alone overflows near p = 1e-158 and its
        # denominator p^2 is 0 below 1e-162; the factor p before it in the
        # cascade brings the product back to about 1/p.
        path = self._rare_on_resume(p)
        assert ett(path)[0] == pytest.approx(exact_ett_dp(path), rel=REL_TOL_ETT)

    def test_overflowing_ett_raises(self):
        # 1/p itself overflows here, as it does in the absorbing chain.
        with pytest.raises(NumericalSingularity):
            ett(self._rare_on_resume(1e-308))

    @pytest.mark.parametrize("model", list(FailureModel))
    @pytest.mark.parametrize("length", [LengthDist.constant(2), LengthDist.from_pairs([(1, 0.25), (3, 0.75)])])
    def test_link_found_on_at_tiny_p_matches_absorbing_chain(self, model, length):
        # An on link's slope holds 1/slack^2 with slack ~ p = 1e-170, which
        # underflows to 0, though the ETT (up to 2.25e170) is representable.
        path = PathSpec((1,), (length,), EdgeDynamics(1e-170, 0.5), model)
        assert ett(path)[0] == pytest.approx(exact_ett_dp(path), rel=REL_TOL_ETT)

    def test_small_p_keeps_its_value(self):
        total, per_node = ett(self._rare_on_resume(1e-150))
        assert total == 2.4999999999999997e150
        assert per_node.tolist() == [0.0, 1.4999999999999999e150, 2.4999999999999997e150]

    @pytest.mark.parametrize("model", list(FailureModel))
    def test_one_slot_link_at_vanishing_p(self, model):
        # A crossing of at most one slot has no seam for an outage to
        # interrupt, so no law reads G_Y, whose slope at 1 divides by
        # p^2 = 0 here: a link found on is crossed at once or in one slot.
        dyn = EdgeDynamics(1e-320, 0.5)
        assert ett(PathSpec((1,), (LengthDist.soa(),), dyn, model))[0] == 1.0
        assert ett(PathSpec((1,), (LengthDist.from_pairs([(0, 0.5), (1, 0.5)]),), dyn, model))[0] == 0.5


class TestPmf:
    def test_instant_traversal(self):
        path = uniform_path((1,), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        result = pmf(path, 4)
        assert result.coeffs[0] == pytest.approx(1.0)
        assert np.all(result.coeffs[1:] == 0.0)
        assert result.tail_mass == pytest.approx(0.0)

    def test_single_off_link_is_geometric(self):
        path = uniform_path((0,), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        result = pmf(path, 10)
        assert result.coeffs[0] == 0.0
        np.testing.assert_allclose(result.coeffs[1:], 0.5 ** np.arange(1, 11), atol=1e-12)

    def test_mass_accounting(self):
        path = uniform_path(
            (0, 1), LengthDist.from_pairs([(0, 0.5), (2, 0.5)]), EdgeDynamics(0.3, 0.4), FailureModel.RESUME
        )
        result = pmf(path, 60)
        assert np.all(result.coeffs >= 0.0)
        assert np.all(result.coeffs <= 1.0 + 1e-12)
        assert math.fsum(result.coeffs.tolist()) + result.tail_mass == pytest.approx(1.0, abs=1e-9)
        assert -1e-9 <= result.tail_mass <= 1.0

    def test_truncated_mean_brackets_ett(self):
        path = uniform_path((0, 0), LengthDist.constant(2), EdgeDynamics(0.5, 0.3), FailureModel.RESUME)
        total, _ = ett(path)
        wide = pmf(path, 800)
        assert wide.tail_mass < 1e-12
        assert wide.truncated_mean() <= total + 1e-9
        assert wide.truncated_mean() == pytest.approx(total, abs=1e-6)

    def test_default_degree_follows_expectation(self):
        path = uniform_path((0,), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        result = pmf(path)
        total, _ = ett(path)
        assert result.k == math.ceil(20.0 * (total + 1.0))

    @pytest.mark.parametrize("model", list(FailureModel))
    def test_matches_forward_propagation(self, model):
        dyn = EdgeDynamics(0.3, 0.6)
        for length in (LengthDist.soa(), LengthDist.constant(3), LengthDist.from_pairs([(0, 0.5), (2, 0.5)])):
            for x in ((0, 1), (1, 1)):
                path = uniform_path(x, length, dyn, model)
                series = pmf(path, 40).coeffs
                exact = exact_pmf_dp(path, 40)
                np.testing.assert_allclose(series, exact, atol=1e-10)

    @pytest.mark.parametrize("model", list(FailureModel))
    @pytest.mark.parametrize("q", [1e-3, 0.5])
    def test_small_p_matches_forward_propagation(self, model, q):
        """p = 1e-3 leaves 1 - (1-p) z within 1e-3 of zero near z = 1.

        Expanding a law over one common denominator, with factors such as
        (1 - (1-p) z)^m, amplifies rounding by about p^-m: resume laws
        written that way missed this comparison by up to 7.9e-8 (length
        {0, 1, 4}).  The nonnegative stage cascade must not.
        """
        dyn = EdgeDynamics(1e-3, q)
        for length in (LengthDist.constant(3), LengthDist.from_pairs([(0, 0.25), (1, 0.25), (4, 0.5)])):
            path = uniform_path((0, 1, 0), length, dyn, model)
            series = pmf(path, 3000).coeffs
            exact = exact_pmf_dp(path, 3000)
            np.testing.assert_allclose(series, exact, atol=1e-10)

    def test_negative_stage_coefficient_rejected(self):
        with pytest.raises(NumericalSingularity):
            _Iir((0.0, -0.25), 1.25, ("c",))
        with pytest.raises(NumericalSingularity):
            _Poly((0.5, -0.1))
        # EdgeDynamics refuses p > 1, which would give G_Y's recurrence the
        # coefficient 1 - p < 0; build one past the check to reach the laws.
        bad = object.__new__(EdgeDynamics)
        object.__setattr__(bad, "p", 1.5)
        object.__setattr__(bad, "q", 0.2)
        for model in (FailureModel.RESUME, FailureModel.RETRANSMIT_IDENTICAL):
            with pytest.raises(NumericalSingularity):
                link_law(model, (bad,), LengthDist.constant(2))
        for model in FailureModel:
            with pytest.raises(NumericalSingularity):
                pmf(uniform_path((0, 1), LengthDist.constant(2), bad, model), 8)

    @pytest.mark.parametrize("model", list(FailureModel))
    def test_long_series_matches_forward_propagation(self, model):
        # k = 8,400 gives 132 blocks of 64 coefficients: the block carry
        # runs 8 doubling steps, past the 47 blocks of the k = 3,000 test.
        lengths = (LengthDist.soa(), LengthDist.from_pairs([(0, 0.5), (2, 0.5)]), LengthDist.constant(3))
        path = PathSpec((0, 1, 0), lengths, EdgeDynamics(0.01, 0.005), model)
        series = pmf(path, 8400).coeffs
        assert np.max(np.abs(series - exact_pmf_dp(path, 8400))) <= ABS_TOL_PMF


def _plain_recurrence(c, x):
    """y_t = x_t + sum_j c[j] y_{t-j}, one t at a time."""
    r = len(c) - 1
    c_rev = np.array(c[:0:-1])  # c[r], ..., c[1]
    y = np.zeros((x.shape[0], r + x.shape[1]))  # r zeros before y_0
    for t in range(x.shape[1]):
        y[:, r + t] = x[:, t] + y[:, t : r + t] @ c_rev
    return y[:, r:]


@pytest.mark.parametrize("order", [1, 3, 64, 70])
@pytest.mark.parametrize("slack", [0.5, 1e-3, 1e-9])
def test_iir_apply_matches_plain_recurrence(order, slack):
    # Orders of at least _BLOCK make the block `order` wide.  The lengths
    # cover one block, its edges and 131 blocks plus 5 coefficients (a
    # carry past 2^7 blocks that is not a power of two); the last, shorter
    # one reads powers of the carry map that the longest one cached.
    rng = np.random.default_rng(order)
    w = rng.random(order) * (rng.random(order) < 0.7)
    w[-1] = 1.0
    c = np.concatenate(([0.0], w / math.fsum(w) * (1.0 - slack)))
    law = _Iir(c, slack, ("c",))
    longest = pgf_module._BLOCK * 131 + 5
    x = rng.random((2, longest)) * (rng.random((2, longest)) < 0.8)
    x[:, :3] = 0.0  # leading zeros must stay exactly zero
    want = _plain_recurrence(c, x)
    for n in (1, 63, 64, 65, longest, 129):
        for row, want_row in zip(x, want):
            got = law.apply(row[:n])
            assert got.shape == (n,)
            assert np.all(got >= 0.0)
            assert np.all(np.abs(got - want_row[:n]) <= 1e-12 * want_row[:n])


def test_law_readers_agree():
    # link_law writes each law once; apply, value and at_one read it three
    # ways.  The series of a unit impulse, where it holds all but 1e-12 of
    # the mass, must give value's numbers and at_one's slope.
    k = 3000
    impulse = np.zeros(k + 1)
    impulse[0] = 1.0
    zs = np.array([-0.5, 0.1, 0.3, 0.5, 0.9])
    pqs = [(0.5, 0.5), (0.3, 0.2), (0.9, 0.05), (0.05, 0.3), (0.2, 0.9)]
    kept = 0
    for model, length in itertools.product(FailureModel, ALL_LENGTHS[1:]):
        dyns = tuple(EdgeDynamics(p, q) for p, q in pqs)
        for dyn in dyns:
            law = link_law(model, (dyn,), length)
            series = law.apply(impulse)
            if 1.0 - math.fsum(series.tolist()) > 1e-12:
                continue
            kept += 1
            at_zs = np.polynomial.polynomial.polyval(zs, series)
            np.testing.assert_allclose(at_zs, law.value(zs), rtol=1e-12, atol=0)
            slope = math.fsum((np.arange(k + 1) * series).tolist())
            assert slope == pytest.approx(law.at_one()[1], rel=1e-12)
        # The law over all five dynamics reads as the five one-dynamics laws, bit for bit.
        grid = np.column_stack([[0.3**j for j in range(1, 6)], *([zs] * (len(dyns) - 1))])
        wide = link_law(model, dyns, length)
        one = [link_law(model, (dyn,), length) for dyn in dyns]
        want = np.column_stack([np.broadcast_to(law.value(z), z.shape) for law, z in zip(one, grid.T)])
        assert np.array_equal(np.broadcast_to(wide.value(grid), grid.shape), want)
        for got, parts in zip(wide.at_one(), zip(*(law.at_one() for law in one))):
            assert np.array_equal(np.broadcast_to(got, len(dyns)), parts)
    assert kept >= 80


# p and q with extra weight at and near both ends of their ranges
_EDGE_P = st.one_of(st.sampled_from([1e-3, 0.02, 0.98, 1.0]), st.floats(1e-3, 1.0))
_EDGE_Q = st.one_of(st.sampled_from([0.0, 1e-3, 0.02, 0.98, 1.0]), st.floats(0.0, 1.0))


def _never_crossed(model, q, lengths):
    """Whether some link is never crossed: the q = 1 rule, written apart from the package.

    q = 1 ends every on-run after one slot, so retransmitting an identical
    length >= 2 never succeeds, and resampling fails only when a link has
    no length below 2.
    """
    if not (model.is_retransmit and q == 1.0):
        return False
    if model is FailureModel.RETRANSMIT_IDENTICAL:
        return any(ld.max_value >= 2 for ld in lengths)
    return any(min(ld.values) >= 2 for ld in lengths)


@st.composite
def _length_dists(draw, low=0):
    values = draw(st.lists(st.integers(low, 4), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
    total = math.fsum(weights)
    return LengthDist(tuple(values), tuple(w / total for w in weights))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    model=st.sampled_from(list(FailureModel)),
    p=_EDGE_P,
    q=_EDGE_Q,
    links=st.lists(st.tuples(st.integers(0, 1), _length_dists()), min_size=1, max_size=4),
)
def test_pmf_heterogeneous_paths_match_forward_propagation(model, p, q, links):
    x, lengths = zip(*links)
    path = PathSpec(tuple(x), tuple(lengths), EdgeDynamics(p, q), model)
    if _never_crossed(model, q, lengths):
        with pytest.raises(InfiniteExpectation):
            pmf(path, 30)
        return
    series = pmf(path, 30)
    exact = exact_pmf_dp(path, 30)
    assert np.max(np.abs(series.coeffs - exact)) <= ABS_TOL_PMF
    assert abs(math.fsum(series.coeffs.tolist()) + series.tail_mass - 1.0) <= ABS_TOL_MASS


# p and q this close to 0 or 1 leave each slot an escape probability near
# machine epsilon, which the chain's solve must not lose.
_NEAR_EDGE = st.sampled_from([1e-4, 0.9999, 0.999999])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    model=st.sampled_from(list(FailureModel)),
    p=st.one_of(_EDGE_P, _NEAR_EDGE),
    q=st.one_of(_EDGE_Q, _NEAR_EDGE),
    links=st.lists(st.tuples(st.integers(0, 1), _length_dists()), min_size=1, max_size=4),
)
def test_ett_heterogeneous_paths_match_absorbing_chain(model, p, q, links):
    x, lengths = zip(*links)
    path = PathSpec(tuple(x), tuple(lengths), EdgeDynamics(p, q), model)
    if _never_crossed(model, q, lengths):
        for engine in (ett, exact_ett_dp):
            with pytest.raises(InfiniteExpectation):
                engine(path)
        return
    assert ett(path)[0] == pytest.approx(exact_ett_dp(path), rel=REL_TOL_ETT)


def _edge_grid_paths():
    """19 (bits, lengths) pairs: every bit pattern of n <= 3 links, and two unit links found on.

    One link has length 0, 1 or 3; two links share the law {0: 1/2, 2: 1/2};
    three links have lengths 3, 1 and 0.  At q = 1 the second of two unit
    links found on is off for certain when the packet reaches it at t = 1:
    P(1 -> 1, 1) = 0, which pi1 + pi0 beta gave as -8.7e-19 at p = 1e-3.
    """
    half = LengthDist.from_pairs([(0, 0.5), (2, 0.5)])
    for x in itertools.product((0, 1), repeat=1):
        for d in (0, 1, 3):
            yield x, (LengthDist.constant(d),)
    for x in itertools.product((0, 1), repeat=2):
        yield x, (half, half)
    for x in itertools.product((0, 1), repeat=3):
        yield x, tuple(LengthDist.constant(d) for d in (3, 1, 0))
    yield (1, 1), (LengthDist.soa(), LengthDist.soa())


# beta at and near -1, p or q at 1 - 1e-3 or 1e-9..1e-6, and q = 1 beside p < 1
@pytest.mark.parametrize("model", list(FailureModel))
@pytest.mark.parametrize(
    "p, q",
    [
        (1.0, 1.0), (1.0, 0.999), (0.999, 0.999), (0.999, 1e-9), (1e-9, 0.5),
        (1e-8, 1e-8), (1e-6, 1e-6), (1e-3, 0.999), (1e-3, 1.0), (0.3, 1.0),
    ],
)
def test_pmf_edge_grid_is_nonnegative_and_matches_forward_propagation(model, p, q):
    dyn = EdgeDynamics(p, q)
    for x, lengths in _edge_grid_paths():
        path = PathSpec(x, lengths, dyn, model)
        if _never_crossed(model, q, lengths):
            continue
        series = pmf(path, 60).coeffs
        assert np.all(series >= 0.0)
        assert np.max(np.abs(series - exact_pmf_dp(path, 60))) <= ABS_TOL_PMF


@pytest.mark.parametrize("bad", [-1e-300, -1e-13, -0.5, np.nan, np.inf])
def test_from_coeffs_rejects_negative_or_non_finite(bad):
    with pytest.raises(NumericalSingularity):
        TruncatedPmf.from_coeffs(np.array([0.5, bad, 0.25]))


# At q = 1 resampled retransmission still crosses a link that has a length
# below 2 (an attempt at it wins); these paths once raised InfiniteExpectation.
@pytest.mark.parametrize("p", [1e-3, 0.3, 1.0])
def test_resampled_at_q_one_matches_absorbing_chain(p):
    laws = (
        LengthDist.from_pairs([(0, 0.5), (2, 0.5)]),
        LengthDist.from_pairs([(1, 0.3), (4, 0.7)]),
        LengthDist.from_pairs([(0, 0.2), (1, 0.2), (3, 0.6)]),
    )
    dyn = EdgeDynamics(p, 1.0)
    for x, lengths in itertools.product(itertools.product((0, 1), repeat=2), itertools.product(laws, repeat=2)):
        path = PathSpec(x, lengths, dyn, FailureModel.RETRANSMIT_RESAMPLED)
        assert ett(path)[0] == pytest.approx(exact_ett_dp(path), rel=REL_TOL_ETT)
        series = pmf(path, 40)
        assert np.max(np.abs(series.coeffs - exact_pmf_dp(path, 40))) <= ABS_TOL_PMF


# Each link's term must not subtract two terms of size 1/p: written as
# pi0 gamma0 + pi1 gamma1 + (gamma0 - gamma1) chi G_{i-1}(beta), a link
# found on with lengths {3, 1, 0} read 7.0e-9 relative off at p = q = 1e-8
# and 4.7e-5 off at 1e-12.
@pytest.mark.parametrize("model", list(FailureModel))
@pytest.mark.parametrize("p, q", [(1e-8, 1e-8), (1e-10, 1e-10), (1e-12, 1e-12), (1e-8, 0.3), (1e-12, 0.3)])
def test_tiny_p_single_link_matches_absorbing_chain(model, p, q):
    laws = (LengthDist.cut(), LengthDist.soa(), LengthDist((3, 1, 0), (0.232, 0.232, 0.536)))
    for x, law in itertools.product((0, 1), laws):
        path = PathSpec((x,), (law,), EdgeDynamics(p, q), model)
        assert ett(path)[0] == pytest.approx(exact_ett_dp(path), rel=REL_TOL_ETT)


# beta = 1 - p - q: zero, small of either sign, fast and slow mixing, and
# the p = q = 1 corner where nothing decays
_BETAS = (0.0, 0.01, -0.01, 0.5, -0.8, 0.9, 0.999, -1.0)


def _dynamics_with_beta(beta, u):
    """Dynamics with p + q = 1 - beta, p placed by u in (0, 1] in its feasible range."""
    lo, hi = max(0.0, -beta), min(1.0, 1.0 - beta)
    p = lo + u * (hi - lo)
    return EdgeDynamics(p, min(1.0, max(0.0, 1.0 - beta - p)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    model=st.sampled_from(list(FailureModel)),
    betas=st.lists(st.sampled_from(_BETAS), min_size=2, max_size=3),
    u=st.floats(0.01, 1.0),
    laws=st.lists(st.one_of(_length_dists(), _length_dists(low=1)), min_size=1, max_size=3),
    extra=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([pgf_module._EPS, 1e-3, 0.3]),
)
def test_truncated_ett_matches_full_table(model, betas, u, laws, extra, seed, eps):
    """Paths longer than K = ceil(log eps / log|beta|): the dropped rows cost <= eps T_min(n).

    The batch mixes dynamics (so stop rows) and initial bits over one
    length sequence; each of its rows must be the single-path ett bit for
    bit.  Up to 400 links past K, and laws whose shortest length is at
    least 1, carry most paths with |beta| < 1 past their decay row, where
    the fill stops.  Wider truncation targets than the default drop rows
    whose error shows.
    """
    with mock.patch.object(pgf_module, "_EPS", eps):
        _check_truncated_against_full(model, betas, u, laws, extra, seed)


def _decay_columns(beta: float) -> int:
    """K, the first power with |beta|^K <= eps, at most 400."""
    b = abs(beta)
    if b == 0.0:
        return 1
    if b >= 1.0:
        return 400
    return min(400, math.ceil(math.log(pgf_module._EPS) / math.log(b)))


def _check_truncated_against_full(model, betas, u, laws, extra, seed):
    rng = np.random.default_rng(seed)
    dyns = [_dynamics_with_beta(beta, u) for beta in betas]
    n = _decay_columns(dyns[0].beta) + extra
    lengths = tuple(laws[k] for k in rng.integers(len(laws), size=n))
    paths = [PathSpec(tuple(rng.integers(0, 2, size=n).tolist()), lengths, dyn, model) for dyn in dyns]
    if any(_never_crossed(model, d.q, lengths) for d in dyns):
        with pytest.raises(InfiniteExpectation):
            ett_batch(paths)
        return
    _assert_truncated_close(paths)


@pytest.mark.parametrize("model", list(FailureModel))
def test_sweep_batch_matches_single_paths(model):
    # The shape of a p sweep: one path, 91 dynamics, one law per length over all of them.
    rng = np.random.default_rng(11)
    laws = ALL_LENGTHS[:4] + [LengthDist.from_pairs([(1, 0.5), (3, 0.5)])]
    lengths = tuple(laws[k] for k in rng.integers(len(laws), size=300))
    base = PathSpec(tuple(rng.integers(0, 2, size=300).tolist()), lengths, EdgeDynamics(0.5, 0.3), model)
    paths = [replace(base, dynamics=EdgeDynamics(round(0.05 + 0.01 * i, 12), 0.3)) for i in range(91)]
    batch = ett_batch(paths)
    for row, path in zip(batch, paths):
        assert np.array_equal(row, ett(path)[1])


def test_invalid_recurrence_names_its_dynamics():
    # (1 - q)^119 underflows at q = 0.999, so a length-120 attempt's success
    # weight, the slack of its retry recurrence, is 0.
    good, bad = EdgeDynamics(0.5, 0.5), EdgeDynamics(0.5, 0.999)
    length = LengthDist.constant(120)
    link_law(FailureModel.RETRANSMIT_IDENTICAL, (good,), length)
    with pytest.raises(NumericalSingularity, match=rf"^{re.escape(str(bad))}: .*not a nonnegative recurrence"):
        link_law(FailureModel.RETRANSMIT_IDENTICAL, (good, bad, good), length)
    path = uniform_path((0, 1), length, good, FailureModel.RETRANSMIT_IDENTICAL)
    with pytest.raises(NumericalSingularity, match=re.escape(str(bad))):
        ett_batch([path, replace(path, dynamics=bad)])


def test_ett_batch_rejects_mismatched_paths():
    dyn = EdgeDynamics(0.3, 0.4)
    base = uniform_path((0, 1), LengthDist.soa(), dyn, FailureModel.RESUME)
    others = (
        uniform_path((0, 1, 1), LengthDist.soa(), dyn, FailureModel.RESUME),
        uniform_path((0, 1), LengthDist.soa(), dyn, FailureModel.CANT_START),
        uniform_path((0, 1), LengthDist.constant(2), dyn, FailureModel.RESUME),
    )
    for other in others:
        with pytest.raises(ValueError):
            ett_batch([base, other])
    with pytest.raises(ValueError):
        ett_batch([])


def _stop_rows(paths):
    """The rows the fill keeps per path, link i weighing |gamma0 - gamma1| |chi_i| = |chi_i| / p."""
    weight = []
    for path in paths:
        dyn = path.dynamics
        chi = [dyn.pi0 if xi else dyn.pi1 for xi in path.x]
        weight.append(np.array(chi) / dyn.p)
    abs_beta = np.array([abs(path.dynamics.beta) for path in paths])
    min_len = np.array([min(ld.values) for ld in paths[0].lengths])
    return pgf_module._stop_rows(np.array(weight).T, abs_beta, min_len)


def _assert_truncated_close(paths):
    """Each batch row is its path's ett, within eps T_min(n) of the table that keeps every row."""
    batch = ett_batch(paths)
    t_min = sum(min(ld.values) for ld in paths[0].lengths)
    bound = pgf_module._EPS * t_min
    for row, path in zip(batch, paths):
        assert np.array_equal(row, ett(path)[1])
        with mock.patch.object(pgf_module, "_EPS", 0.0):
            full = ett(path)[1]
        assert np.all(np.abs(row - full) <= bound)


def test_zero_length_path_keeps_every_row():
    # T_min = 0 throughout: no tail of the table is small relative to it.
    rng = np.random.default_rng(5)
    x = tuple(rng.integers(0, 2, 300).tolist())
    path = uniform_path(x, LengthDist.cut(), EdgeDynamics(0.2, 0.3), FailureModel.RESUME)
    assert _stop_rows([path]).tolist() == [300]
    _assert_truncated_close([path])


def test_stop_row_waits_for_shortest_lengths_to_grow():
    # 500 cut-through links leave T_min at 0; 100 links of length 3 follow.
    rng = np.random.default_rng(6)
    lengths = (LengthDist.cut(),) * 500 + (LengthDist.constant(3),) * 100
    x = tuple(rng.integers(0, 2, 600).tolist())
    path = PathSpec(x, lengths, EdgeDynamics(0.2, 0.3), FailureModel.RESUME)
    assert 500 < _stop_rows([path])[0] < 600
    _assert_truncated_close([path])


def test_mixed_beta_batch_stops_each_path_at_its_own_row(monkeypatch):
    rng = np.random.default_rng(7)
    x = tuple(rng.integers(0, 2, 600).tolist())
    pqs = ((0.5, 0.5), (0.3, 0.2), (0.9, 0.9), (0.05, 0.05))  # beta 0, 0.5, -0.8, 0.9
    paths = [uniform_path(x, LengthDist.soa(), EdgeDynamics(p, q), FailureModel.CANT_START) for p, q in pqs]
    stop = _stop_rows(paths)
    assert len(set(stop.tolist())) == len(paths) and stop.max() < 600
    _assert_truncated_close(paths)
    # At eps = 1e-6 the rows a path drops would show in its result: each
    # batch row must still be that path's own truncated fill.
    monkeypatch.setattr(pgf_module, "_EPS", 1e-6)
    assert len(set(_stop_rows(paths).tolist())) == len(paths)
    per_node = ett_batch(paths)
    for j, path in enumerate(paths):
        assert np.array_equal(per_node[j], ett_batch([path])[0])
