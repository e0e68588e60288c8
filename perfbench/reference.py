#!/usr/bin/env python3
"""Fixed reference workload that measures how fast the machine is right now.

    python3 perfbench/reference.py      # prints the kernel's wall in seconds

The benchmark times this kernel in the set-up probe process that follows
every pass, before that process imports the package. It calls nothing in the
package, so no change to the package moves it; only the machine does. Its shape follows the
pipeline's hot layers: many small NumPy calls on a few hundred boxes
(pairwise overlaps, a sort, a greedy Python loop) and no BLAS call.
"""
from __future__ import annotations

import time

import numpy as np

ROUNDS = 40
BOXES = 256


def kernel(rounds: int = ROUNDS) -> float:
    rng = np.random.default_rng(20210519)
    corners = rng.uniform(0.0, 96.0, size=(rounds, BOXES, 2))
    sizes = rng.uniform(4.0, 32.0, size=(rounds, BOXES, 2))
    total = 0.0
    for r in range(rounds):
        lo, hi = corners[r], corners[r] + sizes[r]
        area = np.prod(hi - lo, axis=1)
        wh = np.clip(np.minimum(hi[:, None], hi[None]) - np.maximum(lo[:, None], lo[None]), 0, None)
        inter = wh[..., 0] * wh[..., 1]
        overlap = inter / (area[:, None] + area[None] - inter)
        alive = np.ones(BOXES, dtype=bool)
        for i in np.argsort(-area):
            if alive[i]:
                alive &= overlap[i] <= 0.5
                alive[i] = True
        total += float(alive.sum())
    return total


def timed() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def main() -> int:
    print(repr(timed()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
