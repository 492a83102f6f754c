"""The yardstick: a fixed loop that the benchmark's time metrics are measured in.

The benchmark shares a few CPUs of a host with other work, and how fast the
host runs moves by a third within minutes.  Every timed operation is
therefore bracketed by runs of this loop, and its time is reported in
yardsticks: the operation's wall time over the mean of the loop's wall time
just before and just after it.  A change to mctsat moves that ratio; the
host speeding up or slowing down moves both sides and cancels.

The loop does the kinds of work a solve does, in about the same mix: UCT
style float arithmetic over a list of children, ``random.randrange`` draws,
a uniform completion of a small numpy vector, and a clause check with a
small integer matrix product.  It never calls mctsat, so no change to the
package can change it.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

ROUNDS = 400
_gen = np.random.default_rng(12345)
_A = _gen.integers(-1, 2, size=(91, 20)).astype(np.int64)
_B = _gen.integers(0, 3, size=91).astype(np.int64)
_W = np.ones(91, dtype=np.int64)
_Q = [1.0 + k for k in range(40)]
_V = [1 + k % 5 for k in range(40)]
_Y0 = np.array([1] * 8 + [-1] * 12, dtype=np.int64)


def loop() -> int:
    rng = random.Random(7)
    total = 0
    for r in range(ROUNDS):
        log_term = 2.0 * math.log(100 + r)
        ucts = [_Q[k] / _V[k] + math.sqrt(log_term / _V[k]) for k in range(40)]
        lo, hi = min(ucts), max(ucts)
        thr = 0.1 * lo + 0.9 * hi
        eligible = [k for k, u in enumerate(ucts) if u >= thr]
        total += eligible[rng.randrange(len(eligible))]
        y = _Y0.copy()
        unassigned = np.flatnonzero(y == -1).tolist()
        while unassigned:
            idx, bit = divmod(rng.randrange(2 * len(unassigned)), 2)
            y[unassigned[idx]] = bit
            unassigned[idx] = unassigned[-1]
            unassigned.pop()
        sat = (_A @ y + _B) >= 1
        total += int(_W[sat].sum())
    return total


def timed() -> float:
    """Wall time of one run of the loop, in seconds."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0
