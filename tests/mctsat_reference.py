"""Reference helpers that only the tests use.

``mctsat.mcts.search_level`` runs a level's episodes inline, in its own
frame.  These are the plain versions it is held to, with the same RNG calls
and the same float expressions: ``uniform_completion`` and ``evaluate`` make
the terminal episode, ``shuffled_completion`` and ``shaped`` the shaped one.
``TestReferenceSearch`` in ``test_mcts.py`` rebuilds the search from them.
``uct_value`` is one arm's UCT value, as ``exploration_eligible`` evaluates
it, and ``format_blp`` a text dump of the matrix view.  The rest completes
the decision-process view of ``mctsat.rl`` (the depth-0 state, the terminal
test, the reward of one episode) and inverts ``records.record_to_json``.

``mctsat.mcts.search_level``'s docstring says why the one-draw completion and
the bits-then-shuffle order are a uniform rollout's distributions.

The module is named apart from perfbench's ``reference``: perfbench's tests
import that one by its bare name, and one pytest run, which collects both
directories, imports a module name only once.
"""

from __future__ import annotations

import json
import math

import numpy as np

from mctsat import (
    CSV_COLUMNS,
    UNASSIGNED,
    BlpProblem,
    Episode,
    EpisodeScorer,
    Formula,
    LevelStats,
    ProblemClass,
    RewardKind,
    SatTableaux,
    State,
    action_space,
    to_blp,
)
from mctsat.mcts import EpisodeKernel


def uniform_completion(y: int, free: int, n: int, rng) -> int:
    """``y`` with each variable of the ``free`` bitset drawn as a fair bit."""
    return y | (rng.getrandbits(n) & free)


def shuffled_completion(free: list[int], rng) -> tuple[list[int], int]:
    """A uniform order of the ``free`` variables and their values as the bits
    of one int, bit i for the i-th variable: the bits are drawn first, then
    ``free`` is shuffled in place and the order is the reverse of it, the
    order in which the shuffle's swaps place the variables."""
    bits = rng.getrandbits(len(free))
    rng.shuffle(free)
    return free[::-1], bits


def shaped(
    kernel: EpisodeKernel, point, order, bits: int, kind: RewardKind
) -> tuple[float, int]:
    """(reward, value) of the episode that extends ``point`` to a leaf, with
    ``order[i]`` given bit i of ``bits``; equals ``EpisodeScorer.score`` of
    the episode from depth 0."""
    increment = kind is RewardKind.INCREMENT_WEIGHTED
    _, _, value, total = kernel.advance(point, order, bits, increment)
    if kind is RewardKind.MIXED:
        return 0.5 * total + 0.5 * float(value), value
    return total, value


def uct_value(level: LevelStats, arm: int, c: float) -> float:
    """Mean reward plus the exploration bonus c * sqrt(2 ln N_level / N_arm),
    evaluated as mean + (c * sqrt(2 ln N_level)) * rad from the arm's cached
    mean and rad, as ``exploration_eligible`` evaluates it."""
    if level.visits[arm] < 1 or level.total < 1:
        raise ValueError("uct_value requires visits on both the level and the arm")
    s = c * math.sqrt(2.0 * math.log(level.total))
    return level.mean[arm] + s * level.rad[arm]


def format_blp(p: BlpProblem) -> str:
    """Plain-text dump of (w, a_y, b), one clause row per line."""
    width = max(
        (len(str(int(v))) for v in np.concatenate([p.w, p.b, p.a_y.ravel()])),
        default=1,
    )
    lines = [f"{'w':>{width}} | {'a_y':^{(width + 1) * max(p.num_vars, 1)}}| b"]
    for j in range(p.num_clauses):
        row = " ".join(f"{int(v):>{width}}" for v in p.a_y[j])
        lines.append(f"{int(p.w[j]):>{width}} | {row} | {int(p.b[j])}")
    return "\n".join(lines) + "\n"


def to_tableaux(p: BlpProblem) -> SatTableaux:
    """State layout with every variable still unassigned."""
    y = np.full(p.num_vars, UNASSIGNED, dtype=np.int8)
    y.flags.writeable = False
    return SatTableaux(p.w, p.a_y, y)


def initial_state(f: Formula, problem_class: ProblemClass):
    """Depth-0 state and its action space of size 2n."""
    if f.num_vars == 0:
        raise ValueError("formula has no variables")
    state = State(to_tableaux(to_blp(f, problem_class)), 0)
    return state, action_space(state)


def is_terminal(s: State) -> bool:
    return s.depth == s.num_vars


def episode_reward(
    e: Episode, f: Formula, problem_class: ProblemClass, kind: RewardKind
) -> float:
    """Reward of a complete episode under the chosen shape."""
    if (np.asarray(e.terminal_assignment) == UNASSIGNED).any():
        raise ValueError("episode is incomplete")
    start_depth = e.steps[0][0].depth if e.steps else len(e.terminal_assignment)
    if start_depth + len(e.steps) != f.num_vars:
        raise ValueError("episode does not reach a full assignment")
    return EpisodeScorer(f, problem_class).score(e, kind)


def parse_result(text: str) -> dict:
    """Re-parse a JSON record; inverse of ``records.record_to_json``."""
    obj = json.loads(text)
    values = (obj[key] for key in CSV_COLUMNS)
    return dict(zip(CSV_COLUMNS, (tuple(v) if isinstance(v, list) else v for v in values)))
