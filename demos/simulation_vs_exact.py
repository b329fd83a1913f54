"""Seeded Monte Carlo simulation against the exact engines.

The Monte Carlo route estimates anything but converges slowly; the
generating-function route is exact and fast.  This script shows the two
agreeing within sampling error, the bit-for-bit reproducibility of a
seeded run, and where the low-variance analytic answer pays off.
"""

import time

from dynpath import (
    EdgeDynamics,
    FailureModel,
    LengthDist,
    exact_pmf_dp,
    ett,
    mc_estimate,
    pmf,
    uniform_path,
)


def main() -> None:
    path = uniform_path(
        (0, 1, 0, 1),
        LengthDist.from_pairs([(0, 0.5), (2, 0.5)]),
        EdgeDynamics(p=0.3, q=0.4),
        FailureModel.RETRANSMIT_RESAMPLED,
    )

    print("Monte Carlo vs exact expected traversal time")
    print("=" * 60)
    exact_value = ett(path)[0]
    print(f"exact ETT: {exact_value:.6f} slots")
    for samples in (10_000, 100_000, 1_000_000):
        start = time.perf_counter()
        r = mc_estimate(path, samples, seed=2718)
        dt = time.perf_counter() - start
        sigmas = abs(r.mean - exact_value) / r.stderr
        print(f"  {samples:>9d} samples: mean {r.mean:8.4f} +- {r.stderr:.4f} "
              f"({sigmas:.2f} stderr from exact, {dt:.2f}s)")

    print("\nSame seed, same histogram, regardless of worker threads")
    print("=" * 60)
    a = mc_estimate(path, 50_000, seed=9)
    b = mc_estimate(path, 50_000, seed=9)
    print(f"  run twice with seed 9: identical = {a == b}")
    print(f"  first five histogram cells: {dict(list(sorted(a.histogram.items()))[:5])}")

    print("\nIntersecting the three routes on the latency distribution")
    print("=" * 60)
    series = pmf(path, 10).coeffs
    forward = exact_pmf_dp(path, 10)
    total = sum(a.histogram.values())
    print(f"{'t':>3s} {'series':>10s} {'forward DP':>11s} {'MC (50k)':>10s}")
    for t in range(11):
        sampled = a.histogram.get(t, 0) / total
        print(f"{t:3d} {series[t]:10.6f} {forward[t]:11.6f} {sampled:10.6f}")

    print("\nRare-regime contrast (p = 0.02: long waits, high variance)")
    print("=" * 60)
    slow = uniform_path((0,), LengthDist.cut(), EdgeDynamics(0.02, 0.5), FailureModel.CANT_START)
    r = mc_estimate(slow, 50_000, seed=31)
    print(f"  exact 1/p = {ett(slow)[0]:.1f}; 50k-sample estimate {r.mean:.1f} +- {r.stderr:.1f}")
    print("  (the analytic route has no sampling error to begin with)")


if __name__ == "__main__":
    main()
