"""Three corners where the traversal time collapses to pencil and paper.

Deterministically alternating links, memoryless links, and links started
from the stationary law all admit closed forms; each is checked here
against the general engine or a direct simulation.
"""

import itertools
import math

import numpy as np

from dynpath import (
    EdgeDynamics,
    FailureModel,
    LengthDist,
    det_model2_time,
    det_slot_time,
    det_traversal_time,
    ett,
    max_geom_ett,
    steady_ett,
    uniform_path,
)


def main() -> None:
    print("Alternating links (p = q = 1): parity decides every wait")
    print("=" * 64)
    print(f"{'bits':>12s} {'lengths':>12s} {'formula':>8s} {'slot sim':>9s}")
    for bits, lengths in (
        ((1, 1), (0, 0)),
        ((1, 0, 1), (0, 0, 0)),
        ((1, 1), (1, 1)),
        ((0, 1, 0), (2, 1, 3)),
    ):
        a = det_traversal_time(bits, lengths)
        b = det_slot_time(bits, lengths, FailureModel.CANT_START)
        print(f"{str(bits):>12s} {str(lengths):>12s} {a:8d} {b:9d}")
    bits, lengths = (1, 0), (2, 3)
    print(f"resume model via unit-edge expansion: {det_model2_time(bits, lengths)} slots "
          f"(simulated: {det_slot_time(bits, lengths, FailureModel.RESUME)})")
    starts = np.array(list(itertools.product((0, 1), repeat=3)))
    lengths = np.tile((1, 2, 1), (len(starts), 1))
    print(f"every start of three links of lengths (1, 2, 1), one row each: "
          f"{det_traversal_time(starts, lengths).tolist()}")

    print("\nMemoryless links (q = 1 - p): each hop pays (1-p)/p of waiting")
    print("=" * 64)
    for p in (0.25, 0.5, 0.75):
        lengths = [LengthDist.soa()] * 4
        dyn = EdgeDynamics(p, 1.0 - p)
        closed = steady_ett(dyn, lengths)
        avg = 0.0
        for x in itertools.product((0, 1), repeat=4):
            w = math.prod(p if b else 1.0 - p for b in x)
            avg += w * ett(uniform_path(x, LengthDist.soa(), dyn, FailureModel.CANT_START))[0]
        print(f"  p={p}: closed form {closed:8.4f}, config-averaged engine {avg:8.4f}")

    print("\nStationary start: the same formula with pi_off in place of 1-p")
    print("=" * 64)
    dyn = EdgeDynamics(0.3, 0.2)
    lengths = [LengthDist.constant(2)] * 3
    print(f"  p=0.3 q=0.2, three 2-slot links: {steady_ett(dyn, lengths):.4f} slots")

    print("\nLinks that never fail (q = 0): outwait the slowest appearance")
    print("=" * 64)
    print(f"{'absent links':>13s} {'alternating-sum form':>21s} {'engine':>10s}")
    p = 0.3
    for n_hat in (1, 2, 4, 8):
        closed = max_geom_ett(n_hat, p)
        path = uniform_path((0,) * n_hat, LengthDist.cut(), EdgeDynamics(p, 0.0), FailureModel.CANT_START)
        print(f"{n_hat:13d} {closed:21.6f} {ett(path)[0]:10.6f}")
    print("  (growth is logarithmic in the number of absent links)")


if __name__ == "__main__":
    main()
