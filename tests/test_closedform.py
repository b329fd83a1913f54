"""Closed-form special cases against independent oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from dynpath.closedform import (
    det_model2_time,
    det_traversal_time,
    max_geom_ett,
    steady_ett,
    steady_pmf_as_printed,
)
from dynpath.errors import ConfigurationError
from dynpath.model import EdgeDynamics, FailureModel, LengthDist, PathSpec, uniform_path
from dynpath.oracle import det_slot_time, exact_ett_dp, exact_pmf_dp
from dynpath.pgf import ett, pmf
from dynpath.validation import _start_weights

# every p = q = 1 kernel: the two closed forms and the slot simulator they are checked against
KERNELS = (det_traversal_time, det_model2_time, det_slot_time)


class TestDeterministicSetting:
    def test_examples(self):
        assert det_traversal_time((1, 1), (0, 0)) == 0
        assert det_traversal_time((1, 0, 1), (0, 0, 0)) == 2
        assert det_traversal_time((1, 1), (1, 1)) == 3

    def test_model2_examples(self):
        assert det_model2_time((1,), (1,)) == 1
        assert det_model2_time((1,), (2,)) == 3
        assert det_model2_time((0,), (1,)) == 2

    def test_exhaustive_small_against_slot_simulator(self):
        for n in range(1, 5):
            bits = np.array(list(itertools.product((0, 1), repeat=n)))
            for lengths in itertools.product((0, 1, 2, 3), repeat=n):
                lens = np.tile(lengths, (len(bits), 1))
                np.testing.assert_array_equal(
                    det_traversal_time(bits, lens), det_slot_time(bits, lens, FailureModel.CANT_START)
                )
                np.testing.assert_array_equal(
                    det_model2_time(bits, lens), det_slot_time(bits, lens, FailureModel.RESUME)
                )

    def test_zero_length_link_found_off_waits_in_model2(self):
        # The packet leaves the unit link in slot 1, when the zero-length
        # second link (on at slot 0) is off: resume waits there one slot.
        assert det_model2_time((1, 1), (1, 0)) == det_slot_time((1, 1), (1, 0), FailureModel.RESUME) == 2
        lengths = (LengthDist.soa(), LengthDist.cut())
        path = PathSpec((1, 1), lengths, EdgeDynamics(1.0, 1.0), FailureModel.RESUME)
        assert ett(path)[0] == pytest.approx(2.0, rel=1e-12)
        assert exact_ett_dp(path) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_one_instance_gives_an_int_and_rows_an_array(self, kernel):
        rng = np.random.default_rng(20240917)
        for n in (2, 5, 8):
            bits = rng.integers(0, 2, size=(200, n))
            lens = rng.integers(0, 4, size=(200, n))
            batch = kernel(bits, lens)
            assert isinstance(batch, np.ndarray) and batch.shape == (200,)
            for row in range(bits.shape[0]):
                one = kernel(tuple(bits[row].tolist()), tuple(lens[row].tolist()))
                assert type(one) is int and one == batch[row]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "bits,lengths",
        [
            ((), ()),
            ((1, 0), (1,)),
            ([[1, 0]], [1, 0]),
            ([[[1]]], [[[1]]]),
            ((1, 2), (1, 1)),
            ((0.5,), (1,)),
            ((1, 0), (1, -1)),
            ((1,), (1.5,)),
        ],
        ids=["empty", "unequal", "unequal_dims", "three_dims", "bit_2", "bit_half", "negative", "fractional"],
    )
    def test_rejects_what_is_not_an_instance(self, kernel, bits, lengths):
        with pytest.raises(ValueError):
            kernel(bits, lengths)

    def test_simplified_printed_forms_stay_wrong(self):
        # Regression locks for the known bad shortcuts: "2n - k + 1" for unit
        # lengths and "2D - k + 1" for the resume model both disagree with
        # direct simulation, so nothing in the package may adopt them.
        bits, lengths = (1, 1), (1, 1)
        n = 2
        k = abs(bits[0] - 1) + abs(bits[1] - bits[0])
        simulated = det_slot_time(bits, lengths, FailureModel.CANT_START)
        assert simulated == det_traversal_time(bits, lengths) == 3
        assert 2 * n - k + 1 == 5 != simulated

        bits2, lengths2 = (1,), (1,)
        big_d = sum(lengths2)
        k2 = abs(bits2[0] - 1)
        simulated2 = det_slot_time(bits2, lengths2, FailureModel.RESUME)
        assert simulated2 == det_model2_time(bits2, lengths2) == 1
        assert 2 * big_d - k2 + 1 == 3 != simulated2


def _balls_in_bins(p: float, n: int, big_d: int, t: int) -> float:
    """Latency pmf with memoryless links and constant lengths totalling D.

    The t - D waiting slots fall on the n nodes like identical balls into
    bins: C(t-D+n-1, t-D) patterns, each of probability p^n (1-p)^(t-D).
    Zero for t < D.
    """
    if t < big_d:
        return 0.0
    w = t - big_d
    return math.comb(w + n - 1, w) * p**n * (1.0 - p) ** w


def _memoryless_pmf(p: float, lengths, k: int) -> np.ndarray:
    """``pmf`` of can't-start constant-length links with q = 1 - p, averaged over x ~ Bernoulli(p)^n."""
    dyn, lds = EdgeDynamics(p, 1.0 - p), tuple(LengthDist.constant(d) for d in lengths)
    out = np.zeros(k + 1)
    for x, weight in _start_weights(len(lds), p):
        out += weight * pmf(PathSpec(x, lds, dyn, FailureModel.CANT_START), k).coeffs
    return out


def _stationary_pmf(path: PathSpec, horizon: int) -> np.ndarray:
    """``exact_pmf_dp`` averaged over the initial configurations, each link on w.p. pi1."""
    starts = _start_weights(path.n, path.dynamics.pi1)
    return sum(w * exact_pmf_dp(replace(path, x=x), horizon) for x, w in starts)


class TestBernoulliModel:
    # Memoryless links (q = 1 - p) start on with probability pi1 = p, so
    # their configuration-averaged ETT is the stationary one.
    def test_ett_examples(self):
        assert steady_ett(EdgeDynamics(0.5, 0.5), [LengthDist.soa()] * 4) == pytest.approx(8.0)
        assert steady_ett(EdgeDynamics(0.25, 0.75), [LengthDist.cut()] * 3) == pytest.approx(9.0)
        lengths = [LengthDist.constant(2), LengthDist.from_pairs([(0, 0.5), (2, 0.5)])]
        assert steady_ett(EdgeDynamics(1.0, 0.0), lengths) == pytest.approx(3.0)

    def test_pmf_examples(self):
        assert _memoryless_pmf(0.5, (0, 0), 1)[0] == pytest.approx(0.25)
        assert _memoryless_pmf(0.5, (0,), 3)[3] == pytest.approx(0.0625)
        assert _memoryless_pmf(0.7, (1, 1, 2), 3)[3] == 0.0
        assert _balls_in_bins(0.5, 2, 0, 0) == pytest.approx(0.25)
        assert _balls_in_bins(0.5, 1, 0, 3) == pytest.approx(0.0625)
        assert _balls_in_bins(0.7, 3, 4, 3) == 0.0

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n,big_d", [(1, 0), (2, 3), (4, 4)])
    def test_pmf_normalizes(self, p, n, big_d):
        # D split over the n links as evenly as integers allow
        lengths = [big_d // n + (i < big_d % n) for i in range(n)]
        k = big_d + 2000
        got = _memoryless_pmf(p, lengths, k)
        want = [_balls_in_bins(p, n, big_d, t) for t in range(k + 1)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert math.fsum(want) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(got.tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_steady_state_when_memoryless(self):
        lengths = [LengthDist.soa(), LengthDist.constant(2), LengthDist.cut()]
        for p in (0.2, 0.5, 0.9):
            dyn = EdgeDynamics(p, 1.0 - p)
            # each hop pays its mean length plus a mean wait of (1 - p) / p
            want = math.fsum(ld.mean() for ld in lengths) + len(lengths) * (1.0 - p) / p
            assert steady_ett(dyn, lengths) == pytest.approx(want, abs=1e-12)


class TestSteadyState:
    def test_ett_examples(self):
        dyn = EdgeDynamics(0.5, 0.5)
        assert steady_ett(dyn, [LengthDist.soa()] * 3) == pytest.approx(6.0)
        assert steady_ett(dyn, [LengthDist.cut()] * 3) == pytest.approx(3.0)
        never_fails = EdgeDynamics(0.3, 0.0)
        lengths = [LengthDist.constant(2), LengthDist.soa()]
        assert steady_ett(never_fails, lengths) == pytest.approx(3.0)

    def test_printed_pmf_single_link(self):
        dyn = EdgeDynamics(0.5, 0.5)
        assert steady_pmf_as_printed(dyn, 1, 1, 2) == pytest.approx(0.25)

    def test_printed_pmf_below_minimum_latency(self):
        assert steady_pmf_as_printed(EdgeDynamics(0.4, 0.2), 3, 5, 4) == 0.0

    def test_printed_pmf_known_discrepancy(self):
        # The transcription gives 0.125 at (n=2, D=0, t=1); the exact forward
        # propagation gives a different value.  The gap is recorded behavior,
        # not a bug in either route.
        dyn = EdgeDynamics(0.5, 0.5)
        printed = steady_pmf_as_printed(dyn, 2, 0, 1)
        assert printed == pytest.approx(0.125)
        path = uniform_path((1, 1), LengthDist.cut(), dyn, FailureModel.CANT_START)
        exact = _stationary_pmf(path, 1)[1]
        assert abs(printed - exact) > 1e-3


class TestMaxGeometric:
    def test_examples(self):
        assert max_geom_ett(0, 0.4) == 0.0
        assert max_geom_ett(1, 0.5) == pytest.approx(2.0)
        assert max_geom_ett(2, 0.5) == pytest.approx(8.0 / 3.0)

    @pytest.mark.parametrize("p", [0.15, 0.4, 0.75, 1.0])
    def test_matches_tail_sum_oracle(self, p):
        # E[max] = sum_t (1 - F(t)^n) with F(t) = 1 - (1-p)^t
        for n_hat in range(1, 11):
            total = 0.0
            t = 0
            while True:
                term = 1.0 - (1.0 - (1.0 - p) ** t) ** n_hat
                total += term
                t += 1
                if term < 1e-16:
                    break
            assert max_geom_ett(n_hat, p) == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_nondecreasing(self, p):
        values = [max_geom_ett(k, p) for k in range(0, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_precision_limit_enforced(self):
        with pytest.raises(ConfigurationError):
            max_geom_ett(61, 0.5)
