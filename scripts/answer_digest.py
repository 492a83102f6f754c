"""Print one sha256 per reward kind over the answers and level statistics of
324 fixed solves.

    PYTHONPATH=src python3 scripts/answer_digest.py

A change that must keep every RNG call, reward and level statistic (a speed-up
of the search, say) must keep every digest; a change confined to the shaped
rewards' draws must keep the terminal one.  The solves:

- 180 on the uf20 fixtures: 20 fixtures x seeds 1-3 x (uct_c, alpha) in
  {(1, 0.9), (-1, 0.5), (2.5, 0)}, terminal reward;
- 48 shaped: the four problem classes x r1/r2/mixed x 4 seeds, on generated
  instances with n = 14, m = 50;
- 96 small: the four classes x the four rewards x n in {1, 2, 9} x two
  (uct_c, alpha, exploit rule) settings, at explore_factor 3.

So the terminal digest covers 204 solves and r1, r2 and mixed 40 each.  Per
solve a digest reads the assignment, objective, satisfied mask, hard
violations and budgets, and per level the actions, visits, q_sum, r_max,
r_min, mean, rad and total, floats by ``float.hex``.  It exits 0 when every
digest equals its entry in ``PINNED`` and 1 otherwise.  A deliberate change to
the RNG stream updates ``PINNED`` and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from mctsat import instances
from mctsat.instances import ProblemClass
from mctsat.mcts import ExploitRule, SolverConfig, derive_seed, solve
from mctsat.rl import RewardKind

PINNED = {  # reward kind -> digest
    "terminal": "933b2b34bc0105423f4d2dc640f4d81e27fdd739e3b7245139dda719b522529c",
    "r1": "818839f83f463441be5701799712832cd1b7e6039860e3ce2d91464838727f23",
    "r2": "3ecf02bb7e7c08f3d85f3565e933e9f0061f139868b0c3686d747cc7bdb1a456",
    "mixed": "0b766a255d0568842266bd1d426132a540c8a405ae29ed77362aa155337c3ddf",
}
UF20_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "uf20"
CLASSES = ((False, 0), (True, 0), (False, 2), (True, 2))  # (weighted, hard clauses)
SHAPED = (RewardKind.INCREMENT_WEIGHTED, RewardKind.PREFIX_WEIGHTED, RewardKind.MIXED)


def solves():
    """(formula, class, config) of every solve, in a fixed order."""
    for path in sorted(UF20_DIR.glob("uf20-*.cnf")):
        f = instances.parse_dimacs(path.read_text())
        for seed in (1, 2, 3):
            for c, alpha in ((1.0, 0.9), (-1.0, 0.5), (2.5, 0.0)):
                yield f, ProblemClass.MAXSAT, SolverConfig(alpha=alpha, uct_c=c, seed=seed)
    for i, (weighted, hard) in enumerate(CLASSES):
        for reward in SHAPED:
            for seed in range(4):
                f = instances.generate_random(
                    14, 50, 3, weighted, hard, seed=derive_seed(seed, 14, i)
                )
                yield f, instances.classify(f), SolverConfig(reward=reward, seed=seed)
    settings = ((1.0, 0.9, ExploitRule.MEAN_Q), (-0.5, 0.3, ExploitRule.SIGNIFICANCE))
    for i, (weighted, hard) in enumerate(CLASSES):
        for reward in RewardKind:
            for n in (1, 2, 9):
                for j, (c, alpha, rule) in enumerate(settings):
                    seed = derive_seed(n, i, j)
                    f = instances.generate_random(n, 4 * n, min(3, n), weighted, hard, seed)
                    cfg = SolverConfig(3.0, alpha, c, reward, rule, seed)
                    yield f, instances.classify(f), cfg


def floats(xs) -> tuple[str, ...]:
    return tuple(x.hex() for x in xs)


def fingerprint(result) -> str:
    """The solve's answer, budgets and level statistics as one exact string."""
    levels = tuple(
        (tuple(level.actions), level.visits, floats(level.q_sum), floats(level.r_max),
         floats(level.r_min), floats(level.mean), floats(level.rad), level.total)
        for level in result.level_roots
    )
    stats = result.stats
    return repr((result.assignment, result.objective, result.satisfied_mask,
                 result.hard_violations, stats.episodes, stats.per_level, stats.n_explore,
                 levels))


def digest() -> dict[str, tuple[str, int]]:
    """(sha256, solve count) per reward kind, keyed by its CLI token."""
    hashes = {kind.value: [hashlib.sha256(), 0] for kind in RewardKind}
    for f, cls, cfg in solves():
        entry = hashes[cfg.reward.value]
        entry[0].update(fingerprint(solve(f, cls, cfg)).encode())
        entry[1] += 1
    return {kind: (h.hexdigest(), count) for kind, (h, count) in hashes.items()}


def main() -> int:
    code = 0
    for kind, (value, count) in digest().items():
        print(f"{kind:8} {value}  {count} solves, Python {sys.version.split()[0]}")
        if value != PINNED[kind]:
            print(f"{kind:8} differs from the pinned digest {PINNED[kind]}")
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
