"""The simulation and absorbing-chain oracles."""

import itertools
import math

import numpy as np
import pytest

import dynpath.oracle as oracle
from dynpath.closedform import bernoulli_pmf
from dynpath.errors import ConfigurationError, InfiniteExpectation, SimulationTimeout
from dynpath.model import EdgeDynamics, FailureModel, LengthDist, uniform_path
from dynpath.oracle import (
    det_slot_time,
    det_slot_time_batch,
    exact_ett_dp,
    exact_pmf_dp,
    mc_estimate,
)
from dynpath.pgf import ett
from test_acceptance import REL_TOL_ETT


class TestMonteCarlo:
    def test_sure_single_slot(self):
        path = uniform_path((1,), LengthDist.soa(), EdgeDynamics(0.2, 0.9), FailureModel.RESUME)
        result = mc_estimate(path, 5000, seed=1)
        assert result.histogram == {1: 5000}
        assert result.mean == 1.0
        assert result.stderr == 0.0

    def test_deterministic_per_seed(self):
        path = uniform_path((0, 1), LengthDist.constant(2), EdgeDynamics(0.4, 0.3), FailureModel.RESUME)
        a = mc_estimate(path, 30000, seed=77)
        b = mc_estimate(path, 30000, seed=77)
        assert a == b
        c = mc_estimate(path, 30000, seed=78)
        assert c.histogram != a.histogram

    def test_histogram_accounting(self):
        path = uniform_path((0, 0), LengthDist.cut(), EdgeDynamics(0.25, 0.25), FailureModel.CANT_START)
        result = mc_estimate(path, 40000, seed=5)
        assert sum(result.histogram.values()) == result.samples == 40000
        weighted = sum(t * c for t, c in result.histogram.items()) / result.samples
        assert result.mean == pytest.approx(weighted, abs=1e-15)

    def test_concordance_with_exact(self):
        path = uniform_path((0, 0), LengthDist.cut(), EdgeDynamics(0.25, 0.25), FailureModel.CANT_START)
        result = mc_estimate(path, 100_000, seed=42)
        assert abs(result.mean - 6.4) <= 4.0 * result.stderr

    def test_thread_count_does_not_change_result(self, monkeypatch):
        path = uniform_path((0, 1), LengthDist.soa(), EdgeDynamics(0.3, 0.5), FailureModel.CANT_START)
        monkeypatch.delenv("DYNPATH_THREADS", raising=False)
        single = mc_estimate(path, 200_000, seed=9)
        monkeypatch.setenv("DYNPATH_THREADS", "2")
        threaded = mc_estimate(path, 200_000, seed=9)
        assert single == threaded

    def test_timeout_on_divergent_path(self, monkeypatch):
        monkeypatch.setattr(oracle, "_STEP_CAP", 500)
        path = uniform_path(
            (1,), LengthDist.constant(2), EdgeDynamics(0.5, 1.0), FailureModel.RETRANSMIT_IDENTICAL
        )
        with pytest.raises(SimulationTimeout):
            mc_estimate(path, 100, seed=0)

    def test_rejects_zero_samples(self):
        path = uniform_path((1,), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        with pytest.raises(ValueError):
            mc_estimate(path, 0, seed=0)


class TestExactEtt:
    def test_examples(self):
        assert exact_ett_dp(
            uniform_path((1,), LengthDist.soa(), EdgeDynamics(0.3, 0.8), FailureModel.CANT_START)
        ) == pytest.approx(1.0)
        assert exact_ett_dp(
            uniform_path((1, 0), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        ) == pytest.approx(2.0)
        for p in (0.2, 0.7):
            assert exact_ett_dp(
                uniform_path((0,), LengthDist.cut(), EdgeDynamics(p, 0.4), FailureModel.CANT_START)
            ) == pytest.approx(1.0 / p)

    def test_limits_enforced(self):
        dyn = EdgeDynamics(0.5, 0.5)
        with pytest.raises(ConfigurationError):
            exact_ett_dp(uniform_path((0,) * 9, LengthDist.cut(), dyn, FailureModel.CANT_START))
        with pytest.raises(ConfigurationError):
            exact_ett_dp(uniform_path((0,), LengthDist.constant(5), dyn, FailureModel.CANT_START))

    def test_divergent_retransmit(self):
        path = uniform_path(
            (0,), LengthDist.constant(3), EdgeDynamics(0.5, 1.0), FailureModel.RETRANSMIT_RESAMPLED
        )
        with pytest.raises(InfiniteExpectation):
            exact_ett_dp(path)

    def test_joint_state_invariants(self):
        path = uniform_path(
            (0, 1), LengthDist.from_pairs([(0, 0.5), (2, 0.5)]), EdgeDynamics(0.4, 0.5),
            FailureModel.RETRANSMIT_IDENTICAL,
        )
        chain = oracle._chain(path.dynamics, path.model, path.lengths)
        for node, progress, realized, cfg in chain._order:
            assert 0 <= node < path.n
            assert 0 <= cfg < 2 ** (path.n - node)
            if progress > 0:
                assert realized is not None
                assert progress < realized
            if progress == 0 and cfg & 1 == 0:
                # awaited link: no partial progress is possible
                assert progress == 0


class TestExactPmf:
    def test_instant_traversal(self):
        path = uniform_path((1, 1), LengthDist.cut(), EdgeDynamics(0.4, 0.4), FailureModel.CANT_START)
        arr = exact_pmf_dp(path, 5)
        assert arr[0] == pytest.approx(1.0)
        assert np.all(arr[1:] == 0.0)

    def test_stationary_single_link(self):
        path = uniform_path((1,), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        arr = exact_pmf_dp(path, 6, initial="stationary")
        assert arr[0] == pytest.approx(0.5)
        np.testing.assert_allclose(arr[1:], 0.5 * 0.5 ** np.arange(1, 7), atol=1e-12)

    def test_bernoulli_initial_matches_balls_in_bins(self):
        p = 0.5
        # memoryless links (q = 1 - p) start on with probability pi1 = p
        path = uniform_path((1, 1), LengthDist.cut(), EdgeDynamics(p, 1.0 - p), FailureModel.CANT_START)
        arr = exact_pmf_dp(path, 30, initial="stationary")
        for t in range(31):
            assert arr[t] == pytest.approx(bernoulli_pmf(p, 2, 0, t), abs=1e-12)

    def test_mass_nearly_complete_at_wide_horizon(self):
        for model in FailureModel:
            for x in ((0, 1), (0, 0)):
                path = uniform_path(x, LengthDist.constant(2), EdgeDynamics(0.3, 0.5), model)
                horizon = int(50 * (exact_ett_dp(path) + 1))
                arr = exact_pmf_dp(path, horizon)
                assert math.fsum(arr.tolist()) >= 1.0 - 1e-6

    def test_initial_mode_validation(self):
        path = uniform_path((1,), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        with pytest.raises(ValueError):
            exact_pmf_dp(path, 5, initial="bernoulli")
        with pytest.raises(ValueError):
            exact_pmf_dp(path, 5, initial="nonsense")


class TestAgainstEachOther:
    @pytest.mark.parametrize("model", list(FailureModel))
    def test_mc_within_four_stderr_of_exact(self, model):
        dyn = EdgeDynamics(0.35, 0.45)
        length = LengthDist.from_pairs([(0, 0.5), (2, 0.5)])
        path = uniform_path((0, 1, 0), length, dyn, model)
        result = mc_estimate(path, 150_000, seed=2024)
        expected = exact_ett_dp(path)
        assert abs(result.mean - expected) <= 4.0 * result.stderr


class TestDeterministicSimulator:
    def test_examples(self):
        assert det_slot_time((1, 0, 1), (0, 0, 0)) == 2
        assert det_slot_time((1, 1), (1, 1)) == 3
        assert det_slot_time((1,), (2,), FailureModel.RESUME) == 3
        assert det_slot_time((0,), (1,), FailureModel.RESUME) == 2

    def test_retransmit_unit_lengths_alias_cant_start(self):
        assert det_slot_time((1, 0), (1, 0), FailureModel.RETRANSMIT_IDENTICAL) == det_slot_time(
            (1, 0), (1, 0), FailureModel.CANT_START
        )
        with pytest.raises(InfiniteExpectation):
            det_slot_time((1,), (2,), FailureModel.RETRANSMIT_RESAMPLED)

    def test_batch_matches_scalar_exhaustively(self):
        for n in (1, 2, 3):
            bits = np.array(list(itertools.product((0, 1), repeat=n)))
            for lengths in itertools.product((0, 1, 2, 3), repeat=n):
                lens = np.tile(np.array(lengths), (bits.shape[0], 1))
                got = det_slot_time_batch(bits, lens, FailureModel.CANT_START)
                for row in range(bits.shape[0]):
                    assert got[row] == det_slot_time(tuple(bits[row]), lengths)
            for lengths in itertools.product((1, 2, 3), repeat=n):
                lens = np.tile(np.array(lengths), (bits.shape[0], 1))
                got = det_slot_time_batch(bits, lens, FailureModel.RESUME)
                for row in range(bits.shape[0]):
                    assert got[row] == det_slot_time(tuple(bits[row]), lengths, FailureModel.RESUME)

    def test_matches_degenerate_chain_monte_carlo(self):
        # p = q = 1 makes the general simulator deterministic; both engines
        # must then agree sample for sample.
        dyn = EdgeDynamics(1.0, 1.0)
        for bits in ((1, 0), (0, 1, 1)):
            for d in (0, 1, 2):
                lengths = (d,) * len(bits)
                path = uniform_path(bits, LengthDist.constant(d), dyn, FailureModel.RESUME)
                if d == 0:
                    continue
                result = mc_estimate(path, 50, seed=3)
                assert result.histogram == {det_slot_time(bits, lengths, FailureModel.RESUME): 50}


class TestAgainstGeneralEngine:
    def test_exact_matches_pgf_on_mixed_lengths(self):
        from dynpath.model import PathSpec

        dyn = EdgeDynamics(0.3, 0.7)
        lengths = (LengthDist.cut(), LengthDist.constant(2), LengthDist.soa())
        for model in FailureModel:
            for x in itertools.product((0, 1), repeat=3):
                path = PathSpec(x, lengths, dyn, model)
                assert exact_ett_dp(path) == pytest.approx(ett(path)[0], rel=1e-9, abs=1e-9)

    def test_sparse_solve_matches_pgf(self):
        path = uniform_path(
            (0, 1) * 4, LengthDist.constant(4), EdgeDynamics(0.3, 0.6), FailureModel.RESUME
        )
        chain = oracle._chain(path.dynamics, path.model, path.lengths)
        assert chain._P.shape[0] > oracle._DENSE_CUTOFF  # 2,040 states: the sparse LU solves it
        assert exact_ett_dp(path) == pytest.approx(ett(path)[0], rel=REL_TOL_ETT)
