"""Core model types and the two-state chain closed forms."""

import itertools

import numpy as np
import pytest

from dynpath.model import (
    EdgeDynamics,
    FailureModel,
    LengthDist,
    PathSpec,
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
        for t in range(51):
            mt = np.linalg.matrix_power(m, t)
            for a in (0, 1):
                for b in (0, 1):
                    assert transient_prob(dyn, a, b, t) == pytest.approx(mt[a, b], abs=1e-10)

    @pytest.mark.parametrize("p,q", [(0.3, 0.1), (0.5, 0.5), (0.05, 0.05), (0.9, 0.9)])
    def test_converges_to_stationary(self, p, q):
        dyn = EdgeDynamics(p, q)
        assert abs(dyn.beta) <= 0.9
        pi = (dyn.pi0, dyn.pi1)
        for a in (0, 1):
            for b in (0, 1):
                assert transient_prob(dyn, a, b, 200) == pytest.approx(pi[b], abs=1e-9)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            transient_prob(EdgeDynamics(0.5, 0.5), 0, 1, -1)


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
        ],
    )
    def test_rejects_bad_pmf(self, pairs):
        with pytest.raises(ValueError):
            LengthDist.from_pairs(pairs)


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
