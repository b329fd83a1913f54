"""Sweeping repair and failure probabilities, at library level and via the CLI.

Emits the same plot-ready CSV the ``dynpath sweep`` subcommand produces and
demonstrates the O(n + R^2) cost that makes thousand-link paths routine:
the table fills only the R rows before |beta|^T_min has decayed past
2^-54 (T_min the sum of the shortest lengths so far), here about
K = ceil(log 2^-54 / log|beta|) = 54 rows at beta = 0.5 whatever n is.
"""

import time

from dynpath import EdgeDynamics, FailureModel, LengthDist, PathSpec, ett, uniform_path


def main() -> None:
    bits = (0, 1, 0, 0, 1, 0)
    length = LengthDist.constant(2)

    print("ETT as the repair probability p grows (q fixed at 0.3)")
    print("=" * 58)
    print("param,value,ett")
    for i in range(1, 10):
        p = i / 10.0
        path = uniform_path(bits, length, EdgeDynamics(p, 0.3), FailureModel.RESUME)
        print(f"p,{p},{ett(path)[0]:.6f}")

    print("\nETT as the failure probability q grows (p fixed at 0.4)")
    print("=" * 58)
    print("param,value,ett")
    for i in range(0, 10):
        q = i / 10.0
        path = uniform_path(bits, length, EdgeDynamics(0.4, q), FailureModel.RESUME)
        print(f"q,{q},{ett(path)[0]:.6f}")

    print("\nO(n + R^2) scaling on long paths (beta = 0.5, K = 54)")
    print("=" * 58)
    for n in (250, 500, 1000, 2000):
        x = tuple(i % 2 for i in range(n))
        lengths = tuple(LengthDist.constant(i % 3) for i in range(n))
        path = PathSpec(x, lengths, EdgeDynamics(0.3, 0.2), FailureModel.CANT_START)
        start = time.perf_counter()
        total = ett(path)[0]
        dt = time.perf_counter() - start
        print(f"  n={n:5d}: ETT {total:12.4f} computed in {dt * 1000:7.1f} ms")

    print("\nEquivalent CLI invocation")
    print("=" * 58)
    print("  dynpath sweep --config path.cfg --param p --from 0.1 --to 0.9 --step 0.1")
    print("  (config file: p/q/model lines plus one 'edge = <bit> <length>' per link)")


if __name__ == "__main__":
    main()
