"""Exhaustive oracle: examples, naive cross-check, guard, hard feasibility."""

import itertools
import random

import pytest

from mctsat import (
    Clause,
    Formula,
    Literal,
    ProblemClass,
    brute_force,
    classify,
    generate_random,
    objective,
    objective_weights,
    parse_cnf,
    parse_wcnf,
)


def naive_sweep(f, problem_class):
    """Plain re-evaluation of every assignment through objective()."""
    best, best_set = -1, set()
    feasible = False
    for bits in itertools.product((0, 1), repeat=f.num_vars):
        res = objective(f, problem_class, list(bits))
        if not res.hard_violations:
            feasible = True
        if res.value > best:
            best, best_set = res.value, {bits}
        elif res.value == best:
            best_set.add(bits)
    return best, best_set, feasible


class TestExamples:
    def test_complementary_pair(self):
        f = parse_cnf("p cnf 1 2\n1 0\n-1 0\n")
        res = brute_force(f, ProblemClass.MAXSAT)
        assert res.optimum == 1
        assert res.optimal_set == ((0,), (1,))

    def test_single_disjunction_has_three_optima(self):
        f = parse_cnf("p cnf 2 1\n1 2 0\n")
        res = brute_force(f, ProblemClass.MAXSAT)
        assert res.optimum == 1
        assert len(res.optimal_set) == 3
        assert (0, 0) not in res.optimal_set

    def test_uf20_fixture_fully_satisfiable(self, uf20_texts):
        f = parse_cnf(uf20_texts[0])
        res = brute_force(f, ProblemClass.MAXSAT, max_vars=20)
        assert res.optimum == 91

    def test_guard_rejected(self):
        f = generate_random(8, 10, 3, seed=0)
        with pytest.raises(ValueError):
            brute_force(f, ProblemClass.MAXSAT, max_vars=7)

    def test_unweighted_satisfiable_optimum_is_m(self):
        f = parse_cnf("p cnf 3 3\n1 0\n2 0\n-3 0\n")
        assert brute_force(f, ProblemClass.MAXSAT).optimum == 3


def heavy(base, hard_count, seed):
    """``base`` with soft weights near 2^70 and its first ``hard_count``
    clauses hard, weighted one above the soft sum."""
    rng = random.Random(seed)
    soft = [2**70 + rng.randrange(2**70) for _ in base.clauses[hard_count:]]
    top = sum(soft) + 1
    clauses = [Clause(c.literals, top, True) for c in base.clauses[:hard_count]]
    clauses += [Clause(c.literals, w) for c, w in zip(base.clauses[hard_count:], soft)]
    return Formula(base.num_vars, tuple(clauses), top if hard_count else None)


class TestCrossCheck:
    def test_matches_naive_sweep_on_random_instances(self):
        rng = random.Random(314)
        cases = []
        for _ in range(30):
            n = rng.randint(2, 9)
            m = rng.randint(1, 20)
            weighted = rng.random() < 0.5
            hard = rng.randint(0, 2) if rng.random() < 0.5 else 0
            cases.append(generate_random(
                n, m, rng.randint(1, min(3, n)), weighted, min(hard, m), rng.randint(0, 10**6)
            ))
        # past n = 9, odd and even n (halves of unequal and equal size), every class
        cases.append(generate_random(10, 43, 3, seed=1))
        cases.append(heavy(generate_random(11, 47, 3, seed=2), 0, seed=2))
        cases.append(generate_random(12, 51, 3, hard_count=3, seed=3))
        cases.append(heavy(generate_random(11, 47, 3, seed=4), 4, seed=4))
        # weights 0 and 1: weighted, though no weight exceeds 1
        base = generate_random(8, 20, 3, seed=6)
        cases.append(Formula(8, tuple(Clause(c.literals, j % 2) for j, c in enumerate(base.clauses))))
        # hard-infeasible: x1 and -x1 both hard
        soft = generate_random(10, 30, 3, seed=5).clauses
        contradiction = (Clause((Literal(1),), 31, True), Clause((Literal(1, True),), 31, True))
        cases.append(Formula(10, contradiction + soft, 31))

        classes, feasibility = set(), []
        for f in cases:
            cls = classify(f)
            res = brute_force(f, cls)
            best, best_set, feasible = naive_sweep(f, cls)
            assert res.optimum == best
            assert set(res.optimal_set) == best_set
            assert res.hard_feasible == feasible
            classes.add(cls)
            feasibility.append(feasible)
        assert classes == set(ProblemClass)
        assert not feasibility[-1]

    def test_optimum_bounded_by_total_weight(self):
        rng = random.Random(4)
        for _ in range(10):
            f = generate_random(6, 15, 3, weighted=True, seed=rng.randint(0, 999))
            cls = classify(f)
            res = brute_force(f, cls)
            assert 1 <= len(res.optimal_set)
            assert res.optimum <= sum(objective_weights(f, cls))


class TestHardFeasibility:
    def test_feasible_case(self):
        f = parse_wcnf("p wcnf 2 3 9\n9 1 0\n1 2 0\n1 -2 0\n")
        assert brute_force(f, ProblemClass.PARTIAL_MAXSAT).hard_feasible

    def test_infeasible_case(self):
        f = parse_wcnf("p wcnf 1 3 9\n9 1 0\n9 -1 0\n1 1 0\n")
        res = brute_force(f, ProblemClass.PARTIAL_MAXSAT)
        assert not res.hard_feasible
