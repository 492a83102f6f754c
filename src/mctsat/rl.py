"""Decision-process view of an instance: states, actions, episodes, rewards.

A state is a tableaux plus the count of assigned variables.  Actions assign a
bit to an unassigned variable; the action space of a state at depth k has
exactly 2(n - k) members.  An episode is a uniformly random completion of a
partial assignment down to a leaf.

This is the reference layer the search is checked against; the tests build
its depth-0 state and score single episodes with the helpers of
``tests/mctsat_reference.py``.  numpy (the ``matrix`` extra) is imported only
inside the functions that build its states and episodes, so the search runs
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .blp import UNASSIGNED, SatTableaux, satisfied_mask, to_blp
from .instances import Formula, ProblemClass

if TYPE_CHECKING:
    import numpy as np


class Action(NamedTuple):
    var: int  # 1-based variable index
    value: int  # 0 or 1


class RewardKind(Enum):
    """Episode reward shapes; CLI tokens as values."""

    TERMINAL = "terminal"
    INCREMENT_WEIGHTED = "r1"
    PREFIX_WEIGHTED = "r2"
    MIXED = "mixed"


@dataclass(slots=True)
class State:
    """A state of the decision process.  ``tableaux`` holds the weights, the
    coefficients and the partial assignment y; ``depth`` counts the variables
    assigned so far, so a state is terminal at depth ``num_vars``."""

    tableaux: SatTableaux
    depth: int

    @property
    def num_vars(self) -> int:
        return self.tableaux.num_vars


@dataclass(frozen=True)
class Episode:
    """Ordered (state, action) steps plus the resulting full assignment."""

    steps: tuple[tuple[State, Action], ...]
    terminal_assignment: np.ndarray


def action_space(s: State) -> list[Action]:
    """Both assignments of every still-unassigned variable."""
    import numpy as np

    out = []
    for i in np.flatnonzero(s.tableaux.y == UNASSIGNED):
        var = int(i) + 1
        out.append(Action(var, 0))
        out.append(Action(var, 1))
    return out


def apply_action(s: State, a: Action) -> State:
    """New state with the assignment applied; the input state is not touched."""
    y = s.tableaux.y
    if not 1 <= a.var <= s.num_vars:
        raise ValueError(f"variable {a.var} out of range")
    if y[a.var - 1] != UNASSIGNED:
        raise ValueError(f"variable {a.var} is already assigned")
    if a.value not in (0, 1):
        raise ValueError(f"action value must be 0 or 1, got {a.value}")
    new_y = y.copy()
    new_y[a.var - 1] = a.value
    new_y.flags.writeable = False
    t = s.tableaux
    return State(SatTableaux(t.w, t.a_y, new_y), s.depth + 1)


def rollout(s: State, rng) -> Episode:
    """Uniform random completion: at every step one of the 2(n - k) remaining
    actions is drawn uniformly."""
    import numpy as np

    if s.depth == s.num_vars:
        raise ValueError("cannot roll out from a terminal state")
    unassigned = [int(i) + 1 for i in np.flatnonzero(s.tableaux.y == UNASSIGNED)]
    steps = []
    cur = s
    while unassigned:
        pick = rng.randrange(2 * len(unassigned))
        idx, bit = divmod(pick, 2)
        var = unassigned[idx]
        unassigned[idx] = unassigned[-1]
        unassigned.pop()
        act = Action(var, bit)
        steps.append((cur, act))
        cur = apply_action(cur, act)
    return Episode(tuple(steps), cur.tableaux.y)


class EpisodeScorer:
    """Reward evaluation for one (formula, class) pair.

    Built once and reused across episodes: keeps the reduction arrays plus
    per-variable lists of the clauses each assignment satisfies.  The partial
    objective after i assignments credits a clause as soon as some assigned
    literal satisfies it; unresolved clauses count zero.
    """

    def __init__(self, f: Formula, problem_class: ProblemClass):
        self.num_vars = f.num_vars
        self.num_clauses = f.num_clauses
        self.problem = to_blp(f, problem_class)
        self._formula = f
        sat_if_one: list[list[int]] = [[] for _ in range(f.num_vars + 1)]
        sat_if_zero: list[list[int]] = [[] for _ in range(f.num_vars + 1)]
        for j, clause in enumerate(f.clauses):
            for lit in clause.literals:
                (sat_if_zero if lit.negated else sat_if_one)[lit.var].append(j)
        self._sat_if = (sat_if_zero, sat_if_one)

    def terminal_value(self, y: np.ndarray) -> int:
        """Weighted satisfied sum of a full assignment, exact in Python ints."""
        p = self.problem
        return int(p.w[satisfied_mask(p, y)].sum())

    def partial_values(self, episode: Episode) -> list[int]:
        """Partial objectives v_d..v_n along the episode, d = starting depth."""
        weights = self.problem.w
        if not episode.steps:
            return [self.terminal_value(episode.terminal_assignment)]
        start = episode.steps[0][0]
        sat = bytearray(self.num_clauses)
        value = 0
        if start.depth > 0:
            y0 = start.tableaux.y
            for j, clause in enumerate(self._formula.clauses):
                for lit in clause.literals:
                    bit = y0[lit.var - 1]
                    if bit != UNASSIGNED and bit == (0 if lit.negated else 1):
                        sat[j] = 1
                        value += weights[j]
                        break
        values = [value]
        sat_if = self._sat_if
        for _, act in episode.steps:
            for j in sat_if[act.value][act.var]:
                if not sat[j]:
                    sat[j] = 1
                    value += weights[j]
            values.append(value)
        return values

    def score(self, episode: Episode, kind: RewardKind) -> float:
        n = self.num_vars
        if kind is RewardKind.TERMINAL:
            return float(self.terminal_value(episode.terminal_assignment))
        if kind is RewardKind.MIXED:
            return 0.5 * self.score(episode, RewardKind.PREFIX_WEIGHTED) + 0.5 * self.score(
                episode, RewardKind.TERMINAL
            )
        values = self.partial_values(episode)
        d = n - (len(values) - 1)
        total = 0.0
        if kind is RewardKind.INCREMENT_WEIGHTED:
            for i in range(max(1, d), n):
                total += (n - i) / n * (values[i + 1 - d] - values[i - d])
        else:  # PREFIX_WEIGHTED
            for i in range(max(1, d), n + 1):
                total += (n + 1 - i) / n * values[i - d]
        return total
