"""Core model types and the two-state chain closed forms."""

import itertools
import math

import numpy as np
import pytest

from dynpath.errors import InfiniteExpectation
from dynpath.model import (
    EdgeDynamics,
    FailureModel,
    LengthDist,
    PathSpec,
    check_feasible,
    transient_prob,
    uniform_path,
)

PQ_GRID = [(0.1, 0.1), (0.3, 0.1), (0.5, 0.5), (0.8, 0.3), (1.0, 1.0), (0.2, 0.0), (0.4, 1.0)]


class TestEdgeDynamics:
    def test_derived_quantities(self):
        dyn = EdgeDynamics(0.3, 0.1)
        assert dyn.beta == 1.0 - 0.3 - 0.1
        assert dyn.pi0 == pytest.approx(0.25)
        assert dyn.pi1 == pytest.approx(0.75)

    @pytest.mark.parametrize("p,q", PQ_GRID)
    def test_invariants(self, p, q):
        dyn = EdgeDynamics(p, q)
        assert -1.0 <= dyn.beta < 1.0
        assert dyn.pi0 + dyn.pi1 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_rejects_bad_parameters(self, p, q):
        with pytest.raises(ValueError):
            EdgeDynamics(p, q)


class TestTransientProb:
    def test_chain_has_not_moved_at_zero(self):
        dyn = EdgeDynamics(0.4, 0.7)
        assert transient_prob(dyn, 0, 1, 0) == 0.0
        assert transient_prob(dyn, 1, 0, 0) == 0.0
        assert transient_prob(dyn, 1, 1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_three_steps(self):
        # cube of [[.5,.5],[.5,.5]] keeps every entry at 0.5
        assert transient_prob(EdgeDynamics(0.5, 0.5), 1, 1, 3) == pytest.approx(0.5)

    def test_two_step_product(self):
        # p(1-q) + (1-p)p for 0 -> 1 in two steps
        assert transient_prob(EdgeDynamics(0.3, 0.1), 0, 1, 2) == pytest.approx(0.48)

    @pytest.mark.parametrize("p,q", PQ_GRID)
    @pytest.mark.parametrize("a", [0, 1])
    def test_rows_sum_to_one(self, p, q, a):
        dyn = EdgeDynamics(p, q)
        for t in (0, 1, 2, 5, 17, 100):
            total = transient_prob(dyn, a, 0, t) + transient_prob(dyn, a, 1, t)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p,q", PQ_GRID)
    def test_matches_matrix_power(self, p, q):
        dyn = EdgeDynamics(p, q)
        m = np.array([[1 - p, p], [q, 1 - q]])
        powers = np.array([np.linalg.matrix_power(m, t) for t in range(51)])
        times = np.arange(51)
        for a in (0, 1):
            for b in (0, 1):
                for t in times:
                    assert transient_prob(dyn, a, b, int(t)) == pytest.approx(powers[t, a, b], abs=1e-10)
                # an integer array of times gives the same law elementwise
                got = transient_prob(dyn, a, b, times)
                assert got.shape == times.shape
                np.testing.assert_allclose(got, powers[:, a, b], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("p,q", [(0.3, 0.1), (0.5, 0.5), (0.05, 0.05), (0.9, 0.9)])
    def test_converges_to_stationary(self, p, q):
        dyn = EdgeDynamics(p, q)
        assert abs(dyn.beta) <= 0.9
        pi = (dyn.pi0, dyn.pi1)
        for a in (0, 1):
            for b in (0, 1):
                assert transient_prob(dyn, a, b, 200) == pytest.approx(pi[b], abs=1e-9)

    @pytest.mark.parametrize("q", [1.0, 0.999999])
    def test_never_negative_near_q_one(self, q):
        # pi1 + pi0 beta^t read -5.6e-17 to -8.7e-19 at 81 of these p for
        # q = 1, t = 1, where the chain leaves the on state for certain.
        times = np.arange(201)
        for p in np.concatenate(([1e-9, 1e-6, 1e-3], np.linspace(0.0, 1.0, 301)[1:])):
            dyn = EdgeDynamics(float(p), q)
            m = np.array([[1 - p, p], [q, 1 - q]])
            for a in (0, 1):
                for b in (0, 1):
                    got = transient_prob(dyn, a, b, times)
                    assert np.all(got >= 0.0)
                    assert all(transient_prob(dyn, a, b, int(t)) >= 0.0 for t in (1, 2, 3))
                    want = [np.linalg.matrix_power(m, t)[a, b] for t in (1, 2, 3)]
                    np.testing.assert_allclose(got[1:4], want, rtol=0, atol=1e-15)
            if q == 1.0:
                assert transient_prob(dyn, 1, 1, 1) == 0.0

    def test_scalar_time_matches_array_bit_for_bit(self):
        # Python's pow and numpy's power of beta differed in the last bit,
        # e.g. p = 0.0134, q = 1e-9, a = b = 0, t = 3.
        rng = np.random.default_rng(15)
        pqs = [(0.0134, 1e-9), (1e-9, 0.5), (1.0, 1.0), (0.2, 0.0), (0.999, 1.0)]
        pqs += [tuple(map(float, rng.uniform(1e-3, 1.0, 2))) for _ in range(55)]
        times = np.arange(100)
        for (p, q), a, b in itertools.product(pqs, (0, 1), (0, 1)):
            dyn = EdgeDynamics(p, q)
            want = transient_prob(dyn, a, b, times)
            got = [transient_prob(dyn, a, b, t) for t in times.tolist()]
            assert all(isinstance(g, float) for g in got)
            assert np.array_equal(got, want), (p, q, a, b)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            transient_prob(EdgeDynamics(0.5, 0.5), 0, 1, -1)
        with pytest.raises(ValueError):
            transient_prob(EdgeDynamics(0.5, 0.5), 0, 1, np.array([3, -1]))
        for a, b in ((2, 1), (0, -1)):
            with pytest.raises(ValueError, match="states must be 0 or 1"):
                transient_prob(EdgeDynamics(0.5, 0.5), a, b, 3)


class TestStationary:
    def test_symmetric(self):
        dyn = EdgeDynamics(0.5, 0.5)
        assert (dyn.pi0, dyn.pi1) == pytest.approx((0.5, 0.5))

    def test_general(self):
        dyn = EdgeDynamics(0.3, 0.1)
        assert (dyn.pi0, dyn.pi1) == pytest.approx((0.25, 0.75))

    def test_absorbing_on_state(self):
        dyn = EdgeDynamics(1.0, 0.0)
        assert (dyn.pi0, dyn.pi1) == pytest.approx((0.0, 1.0))


class TestLengthDist:
    def test_constant_and_aliases(self):
        assert LengthDist.cut() == LengthDist.constant(0)
        assert LengthDist.soa() == LengthDist.constant(1)
        assert LengthDist.constant(3).mean() == 3.0

    def test_pmf(self):
        ld = LengthDist.from_pairs([(0, 0.5), (2, 0.5)])
        assert ld.mean() == pytest.approx(1.0)
        assert ld.max_value == 2
        assert not ld.is_constant

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 0.5), (0, 0.5)],  # duplicate support
            [(0, 0.4), (2, 0.4)],  # does not sum to 1
            [(0, 1.5), (2, -0.5)],  # negative probability
            [(-1, 1.0)],  # negative length
            [(1, math.nan), (2, 0.5)],  # NaN fails <= 0 and the sum test alike
            [(1, math.nan)],
            [(1, math.inf), (2, 0.5)],
            [(1, 1.0 + 2e-16)],  # within the sum tolerance, but above 1
        ],
    )
    def test_rejects_bad_pmf(self, pairs):
        with pytest.raises(ValueError):
            LengthDist.from_pairs(pairs)

    @pytest.mark.parametrize("values,probs", [((), ()), ((0, 2), (1.0,))], ids=["empty", "unequal"])
    def test_constructor_rejects_empty_or_unequal_support(self, values, probs):
        with pytest.raises(ValueError, match="non-empty and equal length"):
            LengthDist(values, probs)


class TestPathSpec:
    def test_uniform_helper(self):
        path = uniform_path((1, 0), LengthDist.cut(), EdgeDynamics(0.5, 0.5), FailureModel.CANT_START)
        assert path.n == 2
        assert path.lengths == (LengthDist.cut(),) * 2

    def test_validation(self):
        dyn = EdgeDynamics(0.5, 0.5)
        with pytest.raises(ValueError):
            PathSpec((), (), dyn, FailureModel.CANT_START)
        with pytest.raises(ValueError):
            PathSpec((1, 0), (LengthDist.cut(),), dyn, FailureModel.CANT_START)
        with pytest.raises(ValueError):
            PathSpec((2,), (LengthDist.cut(),), dyn, FailureModel.CANT_START)

    def test_model_names_match_cli_vocabulary(self):
        assert {m.value for m in FailureModel} == {
            "cant_start",
            "resume",
            "retransmit_identical",
            "retransmit_resampled",
        }

    def test_immutable_and_hashable(self):
        path = uniform_path((1,), LengthDist.soa(), EdgeDynamics(0.5, 0.5), FailureModel.RESUME)
        hash(path)
        with pytest.raises(AttributeError):
            path.x = (0,)


class TestCheckFeasible:
    @pytest.mark.parametrize(
        "model, values, diverges",
        [
            (FailureModel.RETRANSMIT_IDENTICAL, (0, 1), False),
            (FailureModel.RETRANSMIT_IDENTICAL, (1, 2), True),
            (FailureModel.RETRANSMIT_IDENTICAL, (0, 3), True),
            (FailureModel.RETRANSMIT_RESAMPLED, (1, 2), False),
            (FailureModel.RETRANSMIT_RESAMPLED, (0, 3), False),
            (FailureModel.RETRANSMIT_RESAMPLED, (2, 3), True),
            (FailureModel.CANT_START, (2, 3), False),
            (FailureModel.RESUME, (2, 3), False),
        ],
    )
    def test_q_one_rule(self, model, values, diverges):
        length = LengthDist(values, (0.5, 0.5))
        if diverges:
            with pytest.raises(InfiniteExpectation):
                check_feasible(model, EdgeDynamics(0.5, 1.0), length)
        else:
            check_feasible(model, EdgeDynamics(0.5, 1.0), length)
        check_feasible(model, EdgeDynamics(0.5, 0.999), length)  # any q < 1 is finite
