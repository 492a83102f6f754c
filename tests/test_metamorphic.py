"""Metamorphic checks on generated instances of all four classes: renaming
the variables, flipping one variable's polarity in every clause and
shuffling the clauses leave the optimum and hard feasibility unchanged and
map the optimal set through the transformation; ``solve``'s answer on the
transformed formula is scored exactly, as ``objective`` scores it.  The
answer itself may change, since the RNG stream follows the variable order."""

import random

import pytest

from mctsat import (
    Clause,
    Formula,
    Literal,
    ProblemClass,
    RewardKind,
    SolverConfig,
    brute_force,
    classify,
    generate_random,
    objective,
    solve,
)

# (n, m, hard clauses) per class; at n = 4 the 24 hard clauses of 30 are
# unsatisfiable together for some seeds, so hard_feasible is met both ways
SHAPES = {
    ProblemClass.MAXSAT: [(4, 18, 0), (7, 30, 0), (10, 45, 0)],
    ProblemClass.WEIGHTED_MAXSAT: [(4, 18, 0), (7, 30, 0), (10, 45, 0)],
    ProblemClass.PARTIAL_MAXSAT: [(4, 30, 24), (7, 30, 4), (10, 45, 6)],
    ProblemClass.WEIGHTED_PARTIAL_MAXSAT: [(4, 30, 24), (7, 30, 4), (10, 45, 6)],
}
WEIGHTED = {ProblemClass.WEIGHTED_MAXSAT, ProblemClass.WEIGHTED_PARTIAL_MAXSAT}


def instances(cls):
    for i, (n, m, hard) in enumerate(SHAPES[cls]):
        for seed in range(3):
            f = generate_random(n, m, 3, cls in WEIGHTED, hard, seed=100 * i + seed)
            assert classify(f) is cls
            yield f


def rewrite(f, literal, clauses=None):
    """``f`` with every literal mapped by ``literal`` and its clauses in the
    order ``clauses`` (default: unchanged)."""
    clauses = f.clauses if clauses is None else clauses
    mapped = (Clause(tuple(map(literal, c.literals)), c.weight, c.hard) for c in clauses)
    return Formula(f.num_vars, tuple(mapped), f.top_weight)


def permute_variables(f, rng):
    """Variable v + 1 becomes perm[v] + 1; an assignment's bit v moves to perm[v]."""
    perm = list(range(f.num_vars))
    rng.shuffle(perm)

    def image(a):
        b = [0] * len(a)
        for v, bit in enumerate(a):
            b[perm[v]] = bit
        return tuple(b)

    return rewrite(f, lambda lit: Literal(perm[lit.var - 1] + 1, lit.negated)), image


def flip_variable(f, rng):
    """Variable u + 1 is negated in every clause; an assignment's bit u flips."""
    u = rng.randrange(f.num_vars)
    g = rewrite(f, lambda lit: Literal(lit.var, lit.negated != (lit.var == u + 1)))
    return g, lambda a: a[:u] + (1 - a[u],) + a[u + 1 :]


def shuffle_clauses(f, rng):
    """The clauses in a random order; assignments are unchanged."""
    clauses = list(f.clauses)
    rng.shuffle(clauses)
    return rewrite(f, lambda lit: lit, clauses), lambda a: a


TRANSFORMS = [permute_variables, flip_variable, shuffle_clauses]


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.__name__)
@pytest.mark.parametrize("cls", list(ProblemClass), ids=lambda c: c.value)
def test_oracle_maps_through(cls, transform):
    rng = random.Random(f"{cls.value} {transform.__name__}")
    feasibility = set()
    for f in instances(cls):
        truth = brute_force(f, cls)
        g, image = transform(f, rng)
        moved = brute_force(g, cls)
        assert moved.optimum == truth.optimum
        assert moved.hard_feasible == truth.hard_feasible
        assert moved.optimal_set == tuple(sorted(map(image, truth.optimal_set)))
        feasibility.add(truth.hard_feasible)
    partial = cls in (ProblemClass.PARTIAL_MAXSAT, ProblemClass.WEIGHTED_PARTIAL_MAXSAT)
    assert feasibility == ({True, False} if partial else {True})


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.__name__)
@pytest.mark.parametrize("cls", list(ProblemClass), ids=lambda c: c.value)
def test_solve_scored_exactly(cls, transform):
    rng = random.Random(f"{transform.__name__} {cls.value}")
    for i, f in enumerate(instances(cls)):
        g, _ = transform(f, rng)
        kind = list(RewardKind)[i % len(RewardKind)]
        res = solve(g, cls, SolverConfig(seed=rng.randrange(1000), reward=kind))
        scored = objective(g, cls, res.assignment)
        assert res.objective == scored.value
        assert res.satisfied_mask == scored.satisfied
        assert res.hard_violations == scored.hard_violations
        assert res.objective <= brute_force(g, cls).optimum
