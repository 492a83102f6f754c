"""Benchmark workloads: the inputs each one solves, built from a seed.

``build`` is the whole set-up phase: it imports mctsat, parses or generates
every instance and classifies it.  The set-up metric times a fresh interpreter
that runs ``build`` and nothing else, so this module imports no more than
that needs.

A workload is a cycle of pass groups.  Each pass runs one group: a fixed list
of solves with the same mix of instance sizes in every group, so every pass
does the same amount of search work and pass wall times are comparable across
passes and seeds.  Solve seeds are split from the run seed per (pass, solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from mctsat import instances, mcts
from mctsat.instances import Formula, ProblemClass
from mctsat.rl import RewardKind

UF20_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "uf20"
GEN_TAG = 1  # first derive_seed path component for instance generation
SOLVE_TAG = 2  # ... and for solve seeds


@dataclass(frozen=True)
class Instance:
    name: str
    formula: Formula
    problem_class: ProblemClass
    certified_optimum: int | None  # known without enumeration, else None


@dataclass(frozen=True)
class Op:
    """One solve of one instance."""

    instance: int
    reward: RewardKind = RewardKind.TERMINAL


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    groups: tuple[tuple[Op, ...], ...]
    records: bool = False  # serialize each solve as the CLI's JSON record


def solve_seed(run_seed: int, pass_no: int, op_no: int) -> int:
    return mcts.derive_seed(run_seed, SOLVE_TAG, pass_no, op_no)


def uf20_terminal(seed: int) -> Workload:
    """The paper's headline setting: every uf20 fixture, terminal reward."""
    paths = sorted(UF20_DIR.glob("uf20-*.cnf"))
    if len(paths) != 20:
        raise FileNotFoundError(f"expected 20 uf20 fixtures under {UF20_DIR}")
    fixtures = []
    for path in paths:
        f = instances.parse_dimacs(path.read_text())
        # the fixture generator keeps only satisfiable candidates, so m is optimal
        fixtures.append(Instance(path.stem, f, instances.classify(f), f.num_clauses))
    group = tuple(Op(i) for i in range(len(fixtures)))
    return Workload("uf20-terminal", tuple(fixtures), (group,))


# (weighted, hard clauses) per problem class: maxsat, wmaxsat, pms, wpms.
# All at one size, so that the solve times form one cluster and their
# median is stable.
CLASSES = ((False, 0), (True, 0), (False, 2), (True, 2))
SHAPED_SIZE = (14, 50)
SHAPED_REWARDS = (RewardKind.INCREMENT_WEIGHTED, RewardKind.PREFIX_WEIGHTED, RewardKind.MIXED)
SHAPED_GROUPS = 16


def shaped_mix(seed: int) -> Workload:
    """Shaped rewards on generated instances of all four classes.  Each solve
    gets an instance of its own, so a run averages over many instances."""
    n, m = SHAPED_SIZE
    insts, groups = [], []
    for g in range(SHAPED_GROUPS):
        ops = []
        for c, (weighted, hard) in enumerate(CLASSES):
            for r, reward in enumerate(SHAPED_REWARDS):
                f = instances.generate_random(
                    n, m, 3, weighted=weighted, hard_count=hard,
                    seed=mcts.derive_seed(seed, GEN_TAG, g, c, r),
                )
                insts.append(Instance(f"shaped-g{g}-c{c}-r{r}", f, instances.classify(f), None))
                ops.append(Op(len(insts) - 1, reward))
        groups.append(tuple(ops))
    return Workload("shaped-mix", tuple(insts), tuple(groups), records=True)


BUILDERS = {"uf20-terminal": uf20_terminal, "shaped-mix": shaped_mix}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
