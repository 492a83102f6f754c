"""The search's episode kernel and completion draws against the reference
implementations: ``blp.objective``, ``EpisodeScorer`` and ``rollout``."""

import itertools
import random
from collections import Counter

import pytest

from mctsat import (
    Action,
    Clause,
    Episode,
    EpisodeScorer,
    Formula,
    Literal,
    ProblemClass,
    RewardKind,
    SolverConfig,
    apply_action,
    generate_random,
    objective,
    parse_wcnf,
    solve,
)
from mctsat.mcts import EpisodeKernel
from mctsat_reference import initial_state, shaped, shuffled_completion, uniform_completion

# (weighted, hard clauses) per problem class, in ProblemClass order
CLASS_SHAPES = ((False, 0), (True, 0), (False, 2), (True, 2))
SHAPED = (RewardKind.INCREMENT_WEIGHTED, RewardKind.PREFIX_WEIGHTED, RewardKind.MIXED)


def instances(n, seed):
    """One formula per problem class with n variables, plus an empty one."""
    for cls, (weighted, hard) in zip(ProblemClass, CLASS_SHAPES):
        f = generate_random(n, 3 * n + 2, min(3, n), weighted, hard, seed=seed)
        yield f, cls
        yield Formula(n, ()), cls


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_value_and_mask_match_objective(n):
    rng = random.Random(n)
    for f, cls in instances(n, seed=100 + n):
        kernel = EpisodeKernel(f, cls)
        for _ in range(40):
            y = [rng.randint(0, 1) for _ in range(n)]
            value, sat = kernel.evaluate(sum(bit << v for v, bit in enumerate(y)))
            truth = objective(f, cls, y)
            assert value == truth.value
            assert tuple(bool(sat >> j & 1) for j in range(f.num_clauses)) == truth.satisfied


def test_weight_sum_is_exact():
    rng = random.Random(64)
    for m in (1, 7, 8, 9, 40, 65):  # on and off the byte boundary of the weight tables
        for weights in (
            [1] * m,
            [0] * m,
            [rng.randint(0, 1000) for _ in range(m)],
            ([2**64, 2**64 + 1, 2**63, 3] + [rng.randint(1, 2**70) for _ in range(m)])[:m],
        ):
            clauses = tuple(
                Clause((Literal(rng.randint(1, 5), rng.random() < 0.5),), w) for w in weights
            )
            kernel = EpisodeKernel(Formula(5, clauses), ProblemClass.WEIGHTED_MAXSAT)
            for s in [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(200)]:
                exact = sum(w for j, w in enumerate(weights) if s >> j & 1)
                assert kernel.wsum(s) == exact


def huge_weight_instance(n, seed):
    """A weighted formula whose weights all lie in [2**63, 2**70], past int64."""
    rng = random.Random(seed)
    f = generate_random(n, 3 * n + 2, min(3, n), seed=seed)
    clauses = tuple(Clause(c.literals, rng.randint(2**63, 2**70)) for c in f.clauses)
    return Formula(n, clauses), ProblemClass.WEIGHTED_MAXSAT


def reference_episode(f, cls, order, bits):
    """The Episode that assigns order[i] the i-th bit, from depth 0."""
    state, _ = initial_state(f, cls)
    steps = []
    for i, var in enumerate(order):
        action = Action(var + 1, bits >> i & 1)
        steps.append((state, action))
        state = apply_action(state, action)
    return Episode(tuple(steps), state.tableaux.y)


@pytest.mark.parametrize("n", [1, 7, 9])
def test_shaped_reward_equals_episode_scorer(n):
    rng = random.Random(7 * n)
    for f, cls in [*instances(n, seed=200 + n), huge_weight_instance(n, seed=300 + n)]:
        kernel = EpisodeKernel(f, cls)
        scorer = EpisodeScorer(f, cls)
        for _ in range(25):
            order = rng.sample(range(n), n)
            bits = rng.getrandbits(n)
            episode = reference_episode(f, cls, order, bits)
            k = rng.randint(0, n)  # solve extends a cached prefix point
            for kind in SHAPED:
                increment = kind is RewardKind.INCREMENT_WEIGHTED
                prefix = kernel.advance(EpisodeKernel.START, order[:k], bits, increment)
                reward, value = shaped(kernel, prefix, order[k:], bits >> k, kind)
                assert reward == scorer.score(episode, kind)
                assert value == scorer.terminal_value(episode.terminal_assignment)


@pytest.mark.parametrize("n", [7, 9])
def test_cached_step_gains_are_exact(n):
    # a kernel whose step-gain cache is warm scores like a fresh one, and
    # every cached gain is the weight sum of a part of one literal's clauses
    rng = random.Random(11 * n)
    for f, cls in [*instances(n, seed=400 + n), huge_weight_instance(n, seed=500 + n)]:
        warm = EpisodeKernel(f, cls)
        for _ in range(200):
            order = rng.sample(range(n), rng.randint(0, n))
            warm.advance(EpisodeKernel.START, order, rng.getrandbits(n), rng.random() < 0.5)
        fresh = EpisodeKernel(f, cls)
        for _ in range(200):
            order = rng.sample(range(n), n)
            bits = rng.getrandbits(n)
            k = rng.randint(0, n)
            increment = rng.random() < 0.5
            points = []
            for kernel in (warm, fresh):
                prefix = kernel.advance(EpisodeKernel.START, order[:k], bits, increment)
                points.append(kernel.advance(prefix, order[k:], bits >> k, increment))
            assert points[0] == points[1]
            _, sat, value, _ = points[0]
            assert value == fresh.wsum(sat)
        for kernel in (warm, fresh):
            literal_sets = [s for pair in kernel.lit for s in pair]
            for new, gain in kernel.gains.items():
                assert any(new & ~s == 0 for s in literal_sets)
                assert gain == kernel.wsum(new)


def test_uniform_completion_frequencies():
    # committed: variable 2 = 1, variable 4 = 0; free: variables 1, 3, 5
    committed, free = 0b00010, 0b10101
    rng = random.Random(2024)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        y = uniform_completion(committed, free, 5, rng)
        assert y & ~free == committed
        counts[y] += 1
    assert len(counts) == 8
    for count in counts.values():
        assert abs(count / draws - 1 / 8) < 0.02


def test_shuffled_completion_order_frequencies():
    rng = random.Random(2025)
    orders = Counter()
    bit_counts = Counter()
    placed = Counter()  # (walk position, variable there, its bit)
    free = [3, 5, 8]
    draws = 10_000
    for _ in range(draws):
        order, bits = shuffled_completion(free, rng)
        orders[tuple(order)] += 1
        bit_counts[bits] += 1
        placed.update((i, u, bits >> i & 1) for i, u in enumerate(order))
    assert set(orders) == set(itertools.permutations([3, 5, 8]))
    for count in orders.values():
        assert abs(count / draws - 1 / 6) < 0.02
    assert len(bit_counts) == 8
    for count in bit_counts.values():
        assert abs(count / draws - 1 / 8) < 0.02
    # the bits are drawn before the order: each position's bit is still fair
    # and independent of which variable lands there
    assert len(placed) == 3 * 3 * 2
    for count in placed.values():
        assert abs(count / draws - 1 / 6) < 0.02


def test_hard_weight_rule_rejected():
    # hard weight 4 does not exceed the soft total 5
    f = parse_wcnf("p wcnf 1 3 4\n2 1 0\n3 -1 0\n4 1 0\n")
    for cls in (ProblemClass.PARTIAL_MAXSAT, ProblemClass.WEIGHTED_PARTIAL_MAXSAT):
        with pytest.raises(ValueError, match="hard clause weights"):
            solve(f, cls, SolverConfig())
