"""Monte-Carlo tree search over variable assignments.

One variable is committed per level.  The level at depth k is a depth-1
bandit over the 2(n - k) actions of its state, kept as per-arm lists in
``action_space`` order (``LevelStats``).  It pulls every arm once, spends the
rest of its budget on arms drawn from the soft-max-relaxed UCT eligible set,
commits the best arm, and the next level starts afresh from that state.

The UCT value of an arm (UCB1) is mean + c * sqrt(2 ln N / v), with N the
level's visits and v the arm's, evaluated as mean + s * rad with the per-call
scalar s = c * sqrt(2 ln N) and the arm's cached rad = 1 / sqrt(v).
``exploration_eligible`` is the reference eligible set; ``search_level``, one
call per level, draws the same arms from ``exploration_arms``, which evaluates
only the arms that can decide a draw; it runs the episodes, scored by
``EpisodeKernel``, and their backups inline.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import time
from bisect import bisect
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain

from .blp import checked_weights, literal_sets, union_table, weight_sum
from .instances import Formula, ProblemClass
from .rl import Action, RewardKind
from .rl import rollout  # noqa: F401  # tracing site of the rollout layer, not called


class ExploitRule(Enum):
    """How a level commits its child after exploration."""

    MEAN_Q = "mean"
    SIGNIFICANCE = "sig"


@dataclass
class SolverConfig:
    """Search knobs.  Defaults: budget 7x clauses per level, alpha 0.9,
    C = 1.0, terminal reward, mean-value exploitation.  No knob keeps the
    per-level statistics: every ``SolveResult`` holds them."""

    explore_factor: float = 7.0
    alpha: float = 0.9
    uct_c: float = 1.0
    reward: RewardKind = RewardKind.TERMINAL
    exploit_rule: ExploitRule = ExploitRule.MEAN_Q
    seed: int = 0


@dataclass
class LevelStats:
    """One level's bandit: per-arm visit counts, reward sums and reward
    extremes in ``actions`` order, plus the level's total visit count.

    ``backup`` keeps ``total`` equal to the sum of ``visits``.
    ``search_level`` writes it twice instead: the arm count before expansion,
    which ``exploration_arms`` reads at its first draw, after expansion, and
    the budget after exploration.  Between the two it runs ahead of the sum;
    in every snapshot that ``search_level`` returns, it equals it.

    ``mean`` (q_sum / visits) and ``rad`` (1 / sqrt(visits)) cache each arm's
    part of its UCT value; an unvisited arm holds inf in both, so its UCT
    value is inf, which the selection rules refuse.  They are derived from
    the other lists on construction, and afterwards written only by
    ``backup`` and by ``search_level``'s inlined copy of it, which reads rad
    from the solve's 1 / sqrt(v) table (the same floats): writing ``visits``
    or ``q_sum`` directly leaves them stale.
    """

    actions: tuple[Action, ...]
    visits: list[int]
    q_sum: list[float]
    r_max: list[float]
    r_min: list[float]
    total: int = 0
    mean: list[float] = field(init=False)
    rad: list[float] = field(init=False)

    def __post_init__(self):
        self.mean = [q / v if v else math.inf for q, v in zip(self.q_sum, self.visits)]
        self.rad = [1.0 / math.sqrt(v) if v else math.inf for v in self.visits]

    @classmethod
    def fresh(cls, actions) -> "LevelStats":
        k = len(actions)
        return cls(tuple(actions), [0] * k, [0.0] * k, [-math.inf] * k, [math.inf] * k)

    def frozen(self) -> "LevelStats":
        """Read-only snapshot, the per-arm lists and caches as tuples;
        ``solve`` keeps one per committed level in ``SolveResult.level_roots``."""
        arrays = ("visits", "q_sum", "r_max", "r_min")
        snap = replace(self, **{name: tuple(getattr(self, name)) for name in arrays})
        snap.mean, snap.rad = tuple(self.mean), tuple(self.rad)
        return snap


@dataclass(frozen=True)
class SearchStats:
    """A solve's search effort.  ``per_level`` holds each level's actual
    budget, max(n_explore, |A_s| + 1) episodes, or |A_s| at a decided level
    (see ``search_level``), in level order, and ``episodes`` their sum.
    ``n_explore`` is the nominal budget ceil(explore_factor * m).
    ``wall_ms`` times the level loop only: building the episode kernel and
    scoring the final assignment fall outside it."""

    episodes: int
    per_level: tuple[int, ...]
    n_explore: int  # nominal per-level budget ceil(explore_factor * m)
    wall_ms: float


@dataclass(frozen=True)
class SolveResult:
    """A solve's answer and its search.  ``level_roots`` holds each level's
    bandit, ``frozen`` after its commit, in level order: the evidence on
    which each level committed its variable."""

    assignment: tuple[int, ...]
    objective: int
    satisfied_mask: tuple[bool, ...]
    hard_violations: tuple[int, ...]
    stats: SearchStats
    level_roots: tuple[LevelStats, ...]


def soft_threshold(values, alpha: float) -> float:
    """(1 - alpha) * min + alpha * max of a non-empty value list, clamped
    to the max."""
    if len(values) == 0:
        raise ValueError("soft_threshold of an empty list")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    hi = max(values)
    thr = (1.0 - alpha) * min(values) + alpha * hi
    # a convex combination, so mathematically <= hi; it can round one step
    # above (alpha 0.9 over equal values), which would leave no value reaching it
    return hi if thr > hi else thr


def exploration_eligible(level: LevelStats, cfg: SolverConfig) -> list[int]:
    """Arms whose UCT value reaches the soft threshold.  Every arm must have
    a visit, and every value must be finite."""
    if not level.visits:
        raise ValueError("level has no arms")
    if math.inf in level.rad:
        raise ValueError("every arm needs a visit")
    s = cfg.uct_c * math.sqrt(2.0 * math.log(level.total))
    ucts = [m + s * r for m, r in zip(level.mean, level.rad)]
    if not (-math.inf < min(ucts) and max(ucts) < math.inf):  # nan fails both
        raise ValueError(f"uct_c {cfg.uct_c} makes the UCT values overflow at N = {level.total}")
    thr = soft_threshold(ucts, cfg.alpha)
    return [i for i, u in enumerate(ucts) if u >= thr]


def select_exploration_child(level: LevelStats, cfg: SolverConfig, rng) -> int:
    """Uniform draw from the soft-max eligible arms."""
    eligible = exploration_eligible(level, cfg)
    return eligible[rng.randrange(len(eligible))]


STRETCH = 32  # draws per set of bounds
_ROOT_2_LOG = [math.nan]  # [t] = sqrt(2 ln t), grown on demand, shared by all solves
_ROOT_2_LOG_LOCK = threading.Lock()  # held while the table grows


def exploration_arms(level: LevelStats, cfg: SolverConfig, rng, episodes: int):
    """Yield ``episodes`` arms, each the arm ``select_exploration_child``
    would draw at that point, from the same RNG calls.  The caller must
    ``backup`` each yielded arm before asking for the next.  For 0 episodes,
    a decided level's ask, it checks the level and draws nothing.

    The draws come in stretches of ``STRETCH``.  A stretch's scales are
    s = c * r, r = sqrt(2 ln t); r never decreases in t and IEEE
    multiplication is monotone, so the stretch's least and greatest s, s_lo
    and s_hi, are its two end scales.  Each arm gets lower = mean + s_lo * rad
    and upper = mean + s_hi * rad; IEEE rounding is monotone and rad > 0, so
    lower <= mean + s * rad <= upper holds in floating point too, exactly.
    The bounds hold for an arm until it is drawn, and only *hot* arms are
    drawn.  A draw evaluates each hot arm once, by the reference's
    expression, into ``val``.  It finds the exact min by scanning the arms in
    ascending lower until a lower exceeds it; then, while the greatest upper
    left cold reaches the threshold, that arm turns hot.  Every cold arm is
    then below the threshold and the hot max, so min, max, threshold and the
    eligible list (the hot arms that reach it, in index order) are the
    reference's, bit for bit.

    Both orders are kept from one stretch to the next and re-sorted in place,
    which is cheap on nearly sorted lists; their tie order can then differ
    from a fresh sort's.  That can change which arms turn hot, never which
    are eligible: every arm with lower <= min is scanned whatever its place
    among equals, and every cold arm's value stays <= upper < threshold.  A
    longer stretch pays its set-up (two bound lists and two sorts) less
    often, a shorter one keeps its bounds tighter and its hot set smaller;
    CHANGES.md records the measurements behind ``val`` and ``STRETCH``.  Like
    ``exploration_eligible``, it raises a ValueError when a stretch's scale
    or bounds are not finite.
    """
    if not level.visits:
        raise ValueError("level has no arms")
    alpha, c = cfg.alpha, cfg.uct_c
    if not 0.0 <= alpha <= 1.0:  # nan too: its thresholds would leave no arm eligible
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    mean, rad = level.mean, level.rad
    k = len(rad)
    total = level.total
    # backups only add visits, so one check covers every stretch
    if math.inf in rad or total < 1:  # _ROOT_2_LOG[0] is nan
        raise ValueError("every arm needs a visit")
    beta = 1.0 - alpha
    getrandbits = rng.getrandbits
    by_lower, by_upper = list(range(k)), list(range(k))  # re-sorted per stretch
    val = [0.0] * k  # val[a]: hot arm a's value at the current draw; one list per call
    while episodes > 0:
        n = min(episodes, STRETCH)
        episodes -= n
        stop = total + n
        if len(_ROOT_2_LOG) < stop:
            # solves in threads share the table: re-read its length under the
            # lock and append finished entries in one call.  An entry is the
            # float sqrt(2 ln t) computed in place, paid once per process
            with _ROOT_2_LOG_LOCK:
                start = len(_ROOT_2_LOG)
                _ROOT_2_LOG.extend([math.sqrt(2.0 * math.log(t)) for t in range(start, stop)])
        ss = [c * r for r in _ROOT_2_LOG[total:stop]]
        total = stop
        s_lo, s_hi = (ss[0], ss[-1]) if c >= 0 else (ss[-1], ss[0])
        lower = [m + s_lo * r for m, r in zip(mean, rad)]
        upper = [m + s_hi * r for m, r in zip(mean, rad)]
        by_lower.sort(key=lower.__getitem__)
        by_upper.sort(key=upper.__getitem__, reverse=True)
        # a non-finite s or value would make a threshold nan and the eligible
        # list empty; a finite s gives no nan bound, so the extremes decide
        if not (-math.inf < lower[by_lower[0]] and upper[by_upper[0]] < math.inf):
            raise ValueError(f"uct_c {c} makes the UCT values overflow at N <= {stop - 1}")
        hot, h = [by_upper[0]], 1  # hot: by_upper[:h] in index order
        for s in ss:
            a = hot[0]
            lo = hi = mean[a] + s * rad[a]
            for a in hot:
                u = val[a] = mean[a] + s * rad[a]
                if u < lo:
                    lo = u
                elif u > hi:
                    hi = u
            # the exact min: arms past the first lower above lo are above lo
            for a in by_lower:
                if lower[a] > lo:
                    break
                u = mean[a] + s * rad[a]
                if u < lo:
                    lo = u
            while True:
                thr = beta * lo + alpha * hi  # as soft_threshold
                if thr > hi:
                    thr = hi
                # an arm left cold has its value <= upper < thr <= hi
                if h == k or upper[by_upper[h]] < thr:
                    break
                a = by_upper[h]
                h += 1
                hot.insert(bisect(hot, a), a)
                u = val[a] = mean[a] + s * rad[a]
                if u > hi:
                    hi = u
            eligible = []
            for a in hot:
                if val[a] >= thr:
                    eligible.append(a)
            size = len(eligible)
            bits = size.bit_length()
            # rng.randrange(size), call for call: CPython's rejection loop
            # draws getrandbits(size.bit_length()) until it is below size
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            yield eligible[j]


def backup(level: LevelStats, arm: int, reward: float) -> None:
    """Add the episode reward to the arm and one visit to the level, and
    rewrite the arm's cached mean and radius: their only writer."""
    level.total += 1
    v = level.visits[arm] = level.visits[arm] + 1
    q = level.q_sum[arm] = level.q_sum[arm] + reward
    level.mean[arm] = q / v
    level.rad[arm] = 1.0 / math.sqrt(v)
    if reward > level.r_max[arm]:
        level.r_max[arm] = reward
    if reward < level.r_min[arm]:
        level.r_min[arm] = reward


def rank(values) -> list[int]:
    """1-based ascending positions; ties broken by original index."""
    if len(values) == 0:
        raise ValueError("rank of an empty list")
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0] * len(values)
    for position, idx in enumerate(order, 1):
        ranks[idx] = position
    return ranks


def significance(means, maxes) -> list[float]:
    """Per group: the mean where its rank agrees with the max's rank across
    groups, otherwise the max."""
    if len(means) != len(maxes):
        raise ValueError("means and maxes must have equal length")
    mean_ranks = rank(means)
    max_ranks = rank(maxes)
    return [
        means[k] if mean_ranks[k] == max_ranks[k] else maxes[k]
        for k in range(len(means))
    ]


def select_best_child(level: LevelStats, rule: ExploitRule, rng: random.Random) -> int:
    """Commit rule.  MEAN_Q takes the best empirical mean.  SIGNIFICANCE maps
    every arm's significance value onto its maximum statistic, so the score
    is the arm's best observed reward.  Ties break uniformly at random."""
    if not level.visits:
        raise ValueError("level has no arms")
    if rule is ExploitRule.MEAN_Q:
        scores = level.mean
    else:
        scores = level.r_max
    best = max(scores)
    if best == math.inf:
        raise ValueError("every arm needs a visit")
    ties = [i for i, s in enumerate(scores) if s == best]
    return ties[rng.randrange(len(ties))]


@dataclass(frozen=True)
class TheoryBudgets:
    """The lower bounds of ``theory_budgets``.  ``explore_bound``: explorations
    from the root that hit one fixed assignment with probability >= 1 - epsilon.
    ``child_visit_bound``: a root-level budget that explores every child at
    least once with probability >= 1 - delta1.  ``execution_bound``: independent
    executions that see all the optima with probability >= 1 - epsilon."""

    explore_bound: int
    child_visit_bound: int
    execution_bound: int


def theory_budgets(
    n: int, epsilon: float, delta1: float = 0.05, num_optima: int = 1
) -> TheoryBudgets:
    """Closed-form lower bounds on exploration and execution counts.

    explore_bound: explorations from the root so one fixed assignment is hit
    with probability >= 1 - epsilon.  child_visit_bound: root-level budget so
    every child is explored at least once with probability >= 1 - delta1.
    execution_bound: independent executions so all ``num_optima`` optima are
    seen with probability >= 1 - epsilon, assuming a uniform draw per run.
    Raises a ValueError when explore_bound or execution_bound is past the
    float range.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta1 < 1.0:
        raise ValueError("delta1 must be in (0, 1)")
    if num_optima < 1:
        raise ValueError("num_optima must be >= 1")
    try:  # from n = 1023 the float quotient overflows, from n = 1024 already 2**n - 1
        explore = math.ceil(math.log(1.0 / epsilon) / math.log1p(1.0 / (2**n - 1)))
    except OverflowError:
        raise ValueError(
            f"the explore bound for n = {n}, epsilon = {epsilon!r} is past the float range"
        ) from None
    child = math.ceil(math.log(1.0 / delta1) / math.log1p(1.0 / (2 * n - 1))) + 2 * n
    if num_optima == 1:
        execution = 1
    else:  # log(s / (s - 1)) as -log1p(-1/s): log(s) - log(s - 1) cancels to 0.0 at 10**15
        s = num_optima
        try:
            execution = math.ceil(math.log(s / epsilon) / -math.log1p(-1 / s))
        except OverflowError:
            raise ValueError(
                f"the execution bound for num_optima = 10**{math.log10(s):.1f},"
                f" epsilon = {epsilon!r} is past the float range"
            ) from None
    return TheoryBudgets(explore, child, execution)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_seed(base: int, *path: int) -> int:
    """Deterministic seed splitting: fold path components into the base seed."""
    x = _mix64(base + _GOLDEN)
    for p in path:
        x = _mix64(x ^ ((p + _GOLDEN) & _MASK64))
    return x


class EpisodeKernel:
    """Exact episode scoring of one (formula, class) pair on int bitsets:
    an assignment has bit v set when variable v + 1 is 1, a clause set bit j
    for clause j, and ``lit[v][b]`` is the set that v + 1 = b satisfies.

    ``evaluate`` scores a full assignment in ceil(n / 8) lookups, one
    ``union_table`` per byte of variables.  ``advance`` extends a partial
    episode, the point (steps, satisfied set, value, total), where ``total``
    sums ``EpisodeScorer.score``'s r1 or r2 terms in its order and with its
    float expressions; so an episode walked from depth 0 gets the reference
    reward.  ``lit``, ``tables`` and ``wsum`` are built by ``mctsat.blp``'s
    ``literal_sets``, ``union_table`` and ``weight_sum``.

    ``search_level`` runs ``advance``'s step walk inline, fused with its
    shuffle; ``advance`` is the walk's reference and still takes one step
    for each arm's start point and for each commit.

    ``gains`` caches ``wsum`` of each step's newly satisfied clause set,
    keyed by that set, on which alone a step's gain depends.  ``advance``
    fills and reads it; a hit is the exact int ``wsum`` computed for the same
    key.  Every key is a subset of one ``lit[v][b]``, which bounds the dict
    by the sum of 2^|lit[v][b]|.
    """

    START = (0, 0, 0, 0.0)

    def __init__(self, f: Formula, problem_class: ProblemClass):
        n = f.num_vars
        self.wsum = weight_sum(checked_weights(f, problem_class))
        self.lit = lit = literal_sets(f)
        self.tables = [(base, union_table(lit[base : base + 8])) for base in range(0, n, 8)]
        # step s has the coefficient (n + 1 - s) / n in both r1 and r2
        self.coef = [0.0] + [(n + 1 - s) / n for s in range(1, n + 1)]
        self.gains: dict[int, int] = {}  # wsum of each step's new set seen so far

    def evaluate(self, y: int) -> tuple[int, int]:
        """(value, satisfied clause set) of a full assignment."""
        sat = 0
        for base, table in self.tables:
            sat |= table[y >> base & 0xFF]
        return self.wsum(sat), sat

    def advance(self, point, order, bits: int, increment: bool):
        """The point after giving ``order[i]`` bit i of ``bits``; ``total``
        sums the r1 terms when ``increment``, else the r2 terms."""
        s, sat, value, total = point
        lit, coef, gains = self.lit, self.coef, self.gains
        for var in order:
            new = lit[var][bits & 1] & ~sat
            bits >>= 1
            s += 1
            if new:
                try:
                    gain = gains[new]
                except KeyError:
                    gain = gains[new] = self.wsum(new)
                sat |= new
                value += gain
                if increment and s > 1:  # r1 skips the first step's gain
                    total += coef[s] * gain
            if not increment:
                total += coef[s] * value
        return s, sat, value, total


def search_level(state, incumbent, cfg, rng, kernel, nominal, all_clauses, inv_sqrt, triples):
    """One level's bandit: expansion, exploration, then the commit.

    ``state`` is (y, free, free_mask, point): the level's assignment, its free
    variables in ascending order, their mask and the committed path's partial
    episode, ``advance``'s point; ``incumbent`` is the best episode's
    (value, y).  Returns the ``frozen`` level, the child's state (``free``
    updated in place) and the incumbent.

    A level is decided when, for every arm, no other free variable occurs in
    a clause the arm leaves unsatisfied: each reward is fixed by expansion,
    exploration could move neither incumbent nor commit, and the budget is
    |A_s|, not max(nominal, |A_s| + 1).  For all arms at once: one free
    variable, or each unsatisfied clause that a free variable occurs in holds
    every free variable with both signs.  So are a decided level's children.

    Each episode runs inline.  A uniform rollout draws one of the 2(n - k)
    remaining actions per step, so each free variable ends up a fair bit,
    independent of the others and of the order of the draws.  The terminal
    reward depends on the final assignment only, so a terminal episode draws
    all free bits from one ``getrandbits``: the same distribution.  Shaped
    rewards depend on the order too, so a shaped episode draws the fair bits
    first, then a uniform order: the order in which ``shuffle``'s swaps, from
    the last slot down, place the variables.  The tests hold both episodes
    to plain versions (``tests/mctsat_reference.py``) with the same RNG calls
    and the same float expressions, so the same rewards.
    """
    (y, free, free_mask, point), (best_value, best_y) = state, incumbent
    kind, n = cfg.reward, len(triples)
    shaped = kind is not RewardKind.TERMINAL
    increment = kind is RewardKind.INCREMENT_WEIGHTED
    mixed = kind is RewardKind.MIXED
    tables, wsum, gains, coef = kernel.tables, kernel.wsum, kernel.gains, kernel.coef
    getrandbits = rng.getrandbits
    # the arm table, parallel lists indexed by arm; arm 2i + bit gives free[i]
    # the value bit.  ys: the child's assignment; masks: its free variables; for
    # shaped rewards its rest list and its one-step (unsat, value, total).  A
    # variable's two arms share one rest list, so each shuffle starts from the
    # order the last one left: the sharing is part of the RNG results
    ys, masks, rests, starts = [], [], [], []
    occurs, both = 0, all_clauses  # the clauses a free variable occurs in; with both signs
    for v in free:
        off, on = kernel.lit[v]
        occurs, both = occurs | off | on, both & off & on
        rest_mask = free_mask ^ 1 << v
        if shaped:
            rest = [triples[u] for u in free if u != v]
        for bit in (0, 1):
            ys.append(y | bit << v)
            masks.append(rest_mask)
            if shaped:
                _, sat, value, total = kernel.advance(point, (v,), bit, increment)
                rests.append(rest)
                starts.append((all_clauses ^ sat, value, total))
    # one plan for every arm's walk, all of one length: per step, the slot i its
    # swap fills, the bits of that draw and the step's coefficient.  Slot 0,
    # which shuffle leaves, draws getrandbits(0): 0, taking no RNG state, so
    # one loop covers every step
    width = len(free) - 1
    if shaped:
        plan = [(i, i and (i + 1).bit_length(), coef[n - i]) for i in range(width - 1, -1, -1)]
    level = LevelStats.fresh([Action(v + 1, bit) for v in free for bit in (0, 1)])
    # the decided test, for every arm at once; point[1]: the prefix's satisfied set
    decided = len(free) == 1 or not occurs & (all_clauses ^ point[1]) & ~both
    budget = len(ys) if decided else max(nominal, len(ys) + 1)
    visits, q_sum, r_max, r_min = level.visits, level.q_sum, level.r_max, level.r_min
    mean, rad = level.mean, level.rad
    # exploration_arms reads total once, at its first draw, after expansion
    level.total = len(ys)
    # expansion, then exploration; the episode and backup inlined
    for arm in chain(range(len(ys)), exploration_arms(level, cfg, rng, budget - len(ys))):
        if shaped:
            rest = rests[arm]
            bits = step = getrandbits(width)
            # the shuffle of rest and advance's walk in one pass: each
            # swap places a variable for good, and advance's walk scores it at
            # once; each step follows the arm's own, so r1 counts every gain.
            # Each swap makes the getrandbits calls of shuffle's swap of slot
            # i, the same rejection loop for a draw below i + 1.  It keeps the
            # unsatisfied clauses: & with the negative ~sat is slower
            unsat, value, total = starts[arm]
            for i, size, cf in plan:
                j = getrandbits(size)
                while j > i:
                    j = getrandbits(size)
                triple = rest[j]
                rest[j] = rest[i]
                rest[i] = triple
                new = triple[step & 1] & unsat
                step >>= 1
                if new:
                    try:
                        gain = gains[new]
                    except KeyError:
                        gain = gains[new] = wsum(new)
                    unsat ^= new
                    value += gain
                    if increment:
                        total += cf * gain
                if not increment:
                    total += cf * value
            reward = 0.5 * total + 0.5 * float(value) if mixed else total
            if value > best_value:
                best_value = value
                walk = reversed(rest)
                best_y = ys[arm] | sum((bits >> i & 1) << t[2] for i, t in enumerate(walk))
        else:
            full = ys[arm] | (getrandbits(n) & masks[arm])  # every free bit from one draw
            sat = 0
            for base, table in tables:  # kernel.evaluate
                sat |= table[full >> base & 0xFF]
            value = wsum(sat)
            if value > best_value:
                best_value, best_y = value, full
            reward = float(value)
        v = visits[arm] = visits[arm] + 1
        q = q_sum[arm] = q_sum[arm] + reward
        mean[arm] = q / v
        rad[arm] = inv_sqrt[v]
        if reward > r_max[arm]:
            r_max[arm] = reward
        if reward < r_min[arm]:
            r_min[arm] = reward
    level.total = budget  # the sum of visits again
    arm = select_best_child(level, cfg.exploit_rule, rng)
    # the committed variable leaves free, which stays sorted
    point = kernel.advance(point, (free.pop(arm >> 1),), arm & 1, increment)
    return level.frozen(), (ys[arm], free, masks[arm], point), (best_value, best_y)


# solve's ceiling on n: its least budget, n(n + 1) episodes, already takes hours there
MAX_VARS = 2**16


def solve(f: Formula, problem_class: ProblemClass, cfg: SolverConfig) -> SolveResult:
    """Run the level-by-level search and return the best assignment found.

    Per level the budget is max(ceil(explore_factor * m), |A_s| + 1) episodes:
    one expansion episode per arm, the remainder through the eligible-set
    draw, or |A_s| at a level whose rewards are fixed (decided, see
    ``search_level``, which runs each level).  The committed path is returned
    unless some episode found a strictly better assignment, in which case that
    incumbent wins; keeping the path on ties preserves the randomized
    tie-breaking that multi-optimum enumeration relies on.  Deterministic for
    a fixed seed.  Refuses a formula of more than ``MAX_VARS`` variables,
    weights too large for float rewards, and knobs whose float arithmetic
    would overflow, with a ValueError.
    """
    n, m = f.num_vars, f.num_clauses
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {cfg.alpha}")
    if not (cfg.explore_factor > 0 and cfg.explore_factor * m < math.inf):
        raise ValueError(
            f"explore_factor must be positive, with explore_factor x {m} clauses finite,"
            f" got {cfg.explore_factor}"
        )
    if not math.isfinite(cfg.uct_c):  # the bounds of exploration_arms need a finite s
        raise ValueError(f"uct_c must be finite, got {cfg.uct_c}")
    if n == 0:
        raise ValueError("formula has no variables")
    if n > MAX_VARS:  # before any n-sized table
        raise ValueError(f"formula has {n} variables; solve takes at most MAX_VARS = {MAX_VARS}")
    kernel = EpisodeKernel(f, problem_class)
    rng = random.Random(cfg.seed)
    nominal = math.ceil(cfg.explore_factor * m)
    # a reward is at most (n + 1) / 2 times the total weight and an arm sums at
    # most a level budget of them (level 0's, the largest); the spare factor 2
    # covers the floats' rounding.  Blame the weights only if the least level-0
    # budget, 2n + 1, already overflows, else the budget explore_factor gave
    all_clauses = (1 << m) - 1
    top, budget0 = kernel.wsum(all_clauses) * (n + 1), max(nominal, 2 * n + 1)
    if top * (2 * n + 1) > sys.float_info.max:
        raise ValueError(
            "the search's float rewards need total weight x (n + 1) x level budget"
            f" <= the largest float, {sys.float_info.max!r}"
        )
    if top * budget0 > sys.float_info.max:
        raise ValueError(
            f"explore_factor {cfg.explore_factor!r} x {m} clauses gives a level budget of"
            f" {budget0:.3g} episodes, but the float rewards need total weight x (n + 1)"
            " x level budget <= the largest float"
        )
    # a UCT value is a mean reward plus at most |c| sqrt(2 ln N), N < budget0;
    # with the same spare factor 2, no value or threshold overflows
    if top + 2.0 * abs(cfg.uct_c) * math.sqrt(2.0 * math.log(budget0)) > sys.float_info.max:
        raise ValueError(
            f"uct_c x sqrt(2 ln level budget) plus the largest reward must be at most"
            f" half the largest float, got uct_c {cfg.uct_c}"
        )
    # 1 / sqrt(v) for every visit count an arm can reach: level 0's budget
    # bounds them all, and the floats are backup's own
    inv_sqrt = [math.inf] + [1.0 / math.sqrt(v) for v in range(1, budget0 + 1)]
    # rest lists' items: a walk step reads its clause set as triple[bit]
    triples = [(off, on, u) for u, (off, on) in enumerate(kernel.lit)]
    state, incumbent, levels = (0, list(range(n)), (1 << n) - 1, EpisodeKernel.START), (-1, 0), []
    t0 = time.perf_counter()
    while state[1]:  # free variables left
        level, state, incumbent = search_level(
            state, incumbent, cfg, rng, kernel, nominal, all_clauses, inv_sqrt, triples
        )
        levels.append(level)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    y, (best_value, best_y) = state[0], incumbent
    final_y = best_y if best_value > kernel.evaluate(y)[0] else y
    value, sat = kernel.evaluate(final_y)
    per_level = tuple(level.total for level in levels)
    return SolveResult(
        assignment=tuple(final_y >> v & 1 for v in range(n)),
        objective=value,
        satisfied_mask=tuple(bool(sat >> j & 1) for j in range(m)),
        hard_violations=tuple(
            j for j, c in enumerate(f.clauses) if c.hard and not sat >> j & 1
        ),
        stats=SearchStats(sum(per_level), per_level, nominal, wall_ms),
        level_roots=tuple(levels),
    )
