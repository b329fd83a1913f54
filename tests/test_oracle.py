"""The simulation and absorbing-chain oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import dynpath.oracle as oracle
from dynpath.errors import ConfigurationError, InfiniteExpectation, SimulationTimeout
from dynpath.model import EdgeDynamics, FailureModel, LengthDist, PathSpec, uniform_path
from dynpath.oracle import det_slot_time, exact_ett_dp, exact_pmf_dp, mc_estimate
from dynpath.pgf import ett, pmf
from test_acceptance import ABS_TOL_PMF, REL_TOL_ETT

_C = [LengthDist.constant(d) for d in range(4)]
_P01 = LengthDist.from_pairs([(0, 0.5), (1, 0.5)])
_P02 = LengthDist.from_pairs([(0, 0.5), (2, 0.5)])
_P13 = LengthDist.from_pairs([(1, 0.5), (3, 0.5)])


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

    def test_timeout_past_the_step_cap(self, monkeypatch):
        # an attempt wins with probability (1 - q)^3 = 1e-12: finite, but far past any cap
        monkeypatch.setattr(oracle, "_STEP_CAP", 500)
        path = uniform_path(
            (1,), LengthDist.constant(4), EdgeDynamics(0.5, 0.9999), FailureModel.RETRANSMIT_IDENTICAL
        )
        with pytest.raises(SimulationTimeout):
            mc_estimate(path, 100, seed=0)
        # at q = 1 no attempt ever wins, which is refused before simulating
        with pytest.raises(InfiniteExpectation):
            mc_estimate(replace(path, dynamics=EdgeDynamics(0.5, 1.0)), 100, seed=0)

    @pytest.mark.parametrize("model", list(FailureModel))
    def test_tiny_p_times_out_instead_of_wrapping(self, model):
        # Geom(1e-300) draws come back as 2**63 - 1; added to t they would wrap.
        path = uniform_path((1, 0), LengthDist.constant(2), EdgeDynamics(1e-300, 0.5), model)
        with pytest.raises(SimulationTimeout):
            mc_estimate(path, 1000, seed=0)

    @pytest.mark.parametrize("model", list(FailureModel))
    def test_links_that_never_fail(self, model):
        # q = 0: an on-run never ends, so every model crosses like cant_start.
        path = uniform_path((0, 1, 0), _P13, EdgeDynamics(0.4, 0.0), model)
        result = mc_estimate(path, 100_000, seed=3)
        assert min(result.histogram) >= 3
        assert abs(result.mean - exact_ett_dp(path)) <= 4.0 * result.stderr

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
        # p = q = 1: the one state is absorbed in its first slot, so the chain has no transitions
        assert exact_ett_dp(
            uniform_path((0,), LengthDist.cut(), EdgeDynamics(1.0, 1.0), FailureModel.CANT_START)
        ) == 1.0

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

    def test_subnormal_p_has_no_finite_solution(self):
        # 1/p overflows, so the waiting states' expected times are not finite.
        path = uniform_path((0,), LengthDist.cut(), EdgeDynamics(1e-320, 0.5), FailureModel.CANT_START)
        with pytest.raises(InfiniteExpectation):
            exact_ett_dp(path)

    @pytest.mark.parametrize("model", list(FailureModel))
    def test_subnormal_p_answers_a_link_found_on(self, model):
        # The off states' times overflow, but a packet that finds its one
        # unit link on crosses in one slot and never reaches them.
        path = uniform_path((1,), LengthDist.soa(), EdgeDynamics(1e-320, 0.5), model)
        assert exact_ett_dp(path) == 1.0

    def test_subnormal_p_diverges_only_where_an_outage_reaches(self):
        dyn, two = EdgeDynamics(1e-320, 0.5), LengthDist.constant(2)
        assert exact_ett_dp(uniform_path((1,), two, dyn, FailureModel.CANT_START)) == 2.0
        with pytest.raises(InfiniteExpectation):  # an outage can interrupt a resumed crossing
            exact_ett_dp(uniform_path((1,), two, dyn, FailureModel.RESUME))

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
            # the t waiting slots fall on the two nodes in t + 1 ways, each p^2 (1 - p)^t
            assert arr[t] == pytest.approx((t + 1) * p**2 * (1.0 - p) ** t, abs=1e-12)

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
        with pytest.raises(ValueError):
            exact_pmf_dp(path, -1)


class TestAgainstEachOther:
    @pytest.mark.parametrize("model", list(FailureModel))
    def test_mc_within_four_stderr_of_exact(self, model):
        dyn = EdgeDynamics(0.35, 0.45)
        length = LengthDist.from_pairs([(0, 0.5), (2, 0.5)])
        path = uniform_path((0, 1, 0), length, dyn, model)
        result = mc_estimate(path, 150_000, seed=2024)
        expected = exact_ett_dp(path)
        assert abs(result.mean - expected) <= 4.0 * result.stderr

    @pytest.mark.parametrize(
        "x, lengths, p, q, model",
        [
            ((0, 1, 0), (_C[0], _C[2], _P02), 0.3, 0.4, FailureModel.CANT_START),
            ((1, 0, 1), (_C[3], _C[1], _P13), 0.35, 0.45, FailureModel.RESUME),
            ((0, 1), (_P13, _C[2]), 0.5, 0.3, FailureModel.RETRANSMIT_IDENTICAL),
            ((1, 0, 1), (_P13, _P02, _C[1]), 0.6, 0.25, FailureModel.RETRANSMIT_RESAMPLED),
            ((1, 0, 0), (_C[2], _C[0], _C[1]), 1.0, 1.0, FailureModel.CANT_START),
            ((0, 1, 1), (_C[1], _C[3], _C[2]), 1.0, 1.0, FailureModel.RESUME),
            ((1, 0, 0), (_P01, _C[1], _C[0]), 1.0, 1.0, FailureModel.RETRANSMIT_RESAMPLED),
        ],
        ids=["cant_start", "resume", "identical", "resampled", "cant_start_flip", "resume_flip", "resampled_flip"],
    )
    def test_histogram_matches_exact_pmf(self, x, lengths, p, q, model):
        samples, horizon = 400_000, 80
        path = PathSpec(x, lengths, EdgeDynamics(p, q), model)
        result = mc_estimate(path, samples, seed=2024)
        want = exact_pmf_dp(path, horizon)
        want = np.append(want, max(0.0, 1.0 - want.sum()))  # last bin: t > horizon
        got = np.zeros(horizon + 2)
        for t, count in result.histogram.items():
            got[min(t, horizon + 1)] += count
        assert not got[want == 0.0].any()
        # sigma is floored at one sample: a bin expecting 0.04 samples may hold one
        sigma = np.sqrt(np.maximum(samples * want * (1.0 - want), 1.0))
        assert np.all(np.abs(got - samples * want) <= 5.0 * sigma)


def _scalar_slot_time(bits, lengths, model):
    """One instance, one slot at a time: the state of link i at time t is bits[i] ^ (t & 1)."""
    t = 0
    for b, d in zip(bits, lengths):
        if model is FailureModel.RESUME and d:
            while d:
                d -= b ^ (t & 1)
                t += 1
        else:
            while (b ^ (t & 1)) == 0:
                t += 1
            t += d
    return t


class TestDeterministicSimulator:
    def test_examples(self):
        assert det_slot_time((1, 0, 1), (0, 0, 0)) == 2
        assert det_slot_time((1, 1), (1, 1)) == 3
        assert det_slot_time((1,), (2,), FailureModel.RESUME) == 3
        assert det_slot_time((0,), (1,), FailureModel.RESUME) == 2

    def test_retransmit_aliases_cant_start_up_to_unit_lengths(self):
        rows = list(itertools.product(itertools.product((0, 1), repeat=3), repeat=2))
        bits, lens = (np.array(col) for col in zip(*rows))
        longer = lens.copy()
        longer[-1, -1] = 2
        for model in (FailureModel.RETRANSMIT_IDENTICAL, FailureModel.RETRANSMIT_RESAMPLED):
            assert det_slot_time((1, 0), (1, 0), model) == det_slot_time((1, 0), (1, 0)) == 1
            np.testing.assert_array_equal(det_slot_time(bits, lens, model), det_slot_time(bits, lens))
            with pytest.raises(InfiniteExpectation):
                det_slot_time((1,), (2,), model)
            with pytest.raises(InfiniteExpectation):
                det_slot_time(bits, longer, model)

    def test_rows_match_a_scalar_walk_exhaustively(self):
        for n in (1, 2, 3):
            bits = np.array(list(itertools.product((0, 1), repeat=n)))
            for lengths in itertools.product((0, 1, 2, 3), repeat=n):
                lens = np.tile(lengths, (len(bits), 1))
                for model in (FailureModel.CANT_START, FailureModel.RESUME):
                    want = [_scalar_slot_time(row, lengths, model) for row in bits.tolist()]
                    assert det_slot_time(bits, lens, model).tolist() == want

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

    def test_eight_node_chain_matches_pgf(self):
        path = uniform_path(
            (0, 1) * 4, LengthDist.constant(4), EdgeDynamics(0.3, 0.6), FailureModel.RESUME
        )
        chain = oracle._chain(path.dynamics, path.model, path.lengths)
        assert len(chain._order) == 2040  # node blocks of 1024, 512, ..., 8 states
        assert exact_ett_dp(path) == pytest.approx(ett(path)[0], rel=REL_TOL_ETT)

    # An escape probability per slot near machine epsilon: I - P loses it to
    # rounding, and an LU solve of I - P returned +12 %, 57x, -99.8 % and
    # -2.9e-4 relative errors on these paths.
    @pytest.mark.parametrize(
        "x, length, p, q, model",
        [
            ((0,), 4, 1e-4, 0.9999, FailureModel.RETRANSMIT_IDENTICAL),
            ((1, 0, 1), 4, 1e-4, 0.9999, FailureModel.RETRANSMIT_IDENTICAL),
            ((1, 0, 1), 4, 0.999999, 0.999999, FailureModel.RETRANSMIT_IDENTICAL),
            ((0,) * 5, 3, 0.999999, 0.999999, FailureModel.RETRANSMIT_RESAMPLED),
        ],
        ids=["identical_rare_on", "identical_rare_on_3_links", "identical_flipping", "resampled_flipping"],
    )
    def test_near_singular_chain_matches_pgf(self, x, length, p, q, model):
        path = uniform_path(x, LengthDist.constant(length), EdgeDynamics(p, q), model)
        assert exact_ett_dp(path) == pytest.approx(ett(path)[0], rel=REL_TOL_ETT)


class TestRetransmitAtQOne:
    # q = 1 ends every on-run after one slot, so an attempt at a length >= 2 always fails.
    _DYN = EdgeDynamics(0.5, 1.0)
    _ONE_OR_TWO = LengthDist.from_pairs([(1, 0.5), (2, 0.5)])

    _ENGINES = (
        ett,
        exact_ett_dp,
        lambda path: pmf(path, 10),
        lambda path: exact_pmf_dp(path, 10),
        lambda path: mc_estimate(path, 10, seed=1),
    )

    @pytest.mark.parametrize(
        "model, length",
        [
            (FailureModel.RETRANSMIT_IDENTICAL, _ONE_OR_TWO),
            (FailureModel.RETRANSMIT_IDENTICAL, LengthDist.constant(2)),
            (FailureModel.RETRANSMIT_RESAMPLED, LengthDist.from_pairs([(2, 0.5), (3, 0.5)])),
        ],
        ids=["identical_1_2", "identical_2", "resampled_2_3"],
    )
    def test_every_engine_refuses_a_link_it_never_crosses(self, model, length):
        path = PathSpec((1, 0), (LengthDist.soa(), length), self._DYN, model)
        for engine in self._ENGINES:
            with pytest.raises(InfiniteExpectation):
                engine(path)

    def test_resampled_crosses_while_a_short_length_remains(self):
        # E = 1/2 * 1 + 1/2 * (1 + 1/p + E): a failed attempt costs its slot and a repair
        path = PathSpec((1,), (self._ONE_OR_TWO,), self._DYN, FailureModel.RETRANSMIT_RESAMPLED)
        assert ett(path)[0] == pytest.approx(4.0, rel=1e-12)
        assert exact_ett_dp(path) == pytest.approx(4.0, rel=REL_TOL_ETT)
        np.testing.assert_allclose(pmf(path, 60).coeffs, exact_pmf_dp(path, 60), atol=ABS_TOL_PMF)
        result = mc_estimate(path, 200_000, seed=7)
        assert abs(result.mean - 4.0) <= 4.0 * result.stderr
