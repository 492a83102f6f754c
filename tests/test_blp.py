"""Reduction correctness: matrix rows, weight rules, and equivalence of the
row test with a direct clause walk written independently here."""

import itertools
import random

import numpy as np
import pytest

from mctsat import (
    Clause,
    EpisodeScorer,
    Formula,
    Literal,
    ProblemClass,
    classify,
    format_blp,
    generate_random,
    objective,
    objective_weights,
    parse_cnf,
    parse_wcnf,
    satisfied_mask,
    to_blp,
    UNASSIGNED,
)
from mctsat_reference import to_tableaux


def lit(code):
    return Literal(abs(code), code < 0)


def clause_satisfied_directly(clause, y):
    """Independent evaluator: walk the literals, no matrix involved."""
    for l in clause.literals:
        if y[l.var - 1] == (0 if l.negated else 1):
            return True
    return False


def objective_directly(f, problem_class, y):
    weights = objective_weights(f, problem_class)
    return sum(
        w for w, c in zip(weights, f.clauses) if clause_satisfied_directly(c, y)
    )


def random_mixed_formula(rng, max_n=15, max_m=60):
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    k = rng.randint(1, min(3, n))
    weighted = rng.random() < 0.5
    hard = rng.randint(0, min(3, m)) if rng.random() < 0.5 else 0
    return generate_random(n, m, k, weighted, hard, rng.randint(0, 10**9))


class TestMatrixConstruction:
    def test_mixed_signs_row(self):
        f = parse_cnf("p cnf 2 1\n1 -2 0\n")
        p = to_blp(f, ProblemClass.MAXSAT)
        assert p.a_y.tolist() == [[1, -1]]
        assert p.b.tolist() == [1]

    def test_duplicate_literal_coefficients_sum(self):
        f = Formula(1, (Clause((lit(1), lit(1))),))
        p = to_blp(f, ProblemClass.MAXSAT)
        assert p.a_y.tolist() == [[2]]
        assert p.b.tolist() == [0]
        assert satisfied_mask(p, np.array([1])).tolist() == [True]
        assert satisfied_mask(p, np.array([0])).tolist() == [False]

    def test_b_counts_negated_literals(self):
        f = parse_cnf("p cnf 3 2\n-1 -2 -3 0\n1 2 0\n")
        p = to_blp(f, ProblemClass.MAXSAT)
        assert p.b.tolist() == [3, 0]

    def test_tautology_always_satisfied(self):
        f = Formula(1, (Clause((lit(1), lit(-1))),))
        p = to_blp(f, ProblemClass.MAXSAT)
        for value in (0, 1):
            assert satisfied_mask(p, np.array([value])).tolist() == [True]


class TestWeightRules:
    def test_weight_beyond_int64_kept_exact(self):
        top = 2**64
        f = parse_wcnf(f"p wcnf 2 3 {top}\n{top} 1 0\n{top} 2 0\n1 -1 -2 0\n")
        p = to_blp(f, classify(f))
        assert p.w.tolist() == [2**64, 2**64, 1]
        weights = [line.split(" | ")[0].strip() for line in format_blp(p).splitlines()[1:]]
        assert weights == [str(2**64), str(2**64), "1"]
        assert to_blp(f, ProblemClass.MAXSAT).w.tolist() == [1, 1, 1]

    def test_maxsat_all_ones(self):
        f = parse_wcnf("p wcnf 2 2\n1 1 0\n1 2 0\n")
        assert to_blp(f, ProblemClass.MAXSAT).w.tolist() == [1, 1]

    def test_weighted_keeps_input(self):
        f = parse_wcnf("p wcnf 2 2\n4 1 0\n9 2 0\n")
        assert to_blp(f, ProblemClass.WEIGHTED_MAXSAT).w.tolist() == [4, 9]

    def test_partial_flattens_soft_to_one(self):
        f = parse_wcnf("p wcnf 2 3 5\n1 1 0\n1 2 0\n5 -1 0\n")
        assert to_blp(f, ProblemClass.PARTIAL_MAXSAT).w.tolist() == [1, 1, 5]

    def test_weighted_partial_keeps_all(self):
        f = parse_wcnf("p wcnf 2 3 9\n2 1 0\n5 2 0\n9 -1 0\n")
        assert to_blp(f, ProblemClass.WEIGHTED_PARTIAL_MAXSAT).w.tolist() == [2, 5, 9]

    def test_hard_dominance_enforced(self):
        f = parse_wcnf("p wcnf 1 3 4\n2 1 0\n3 -1 0\n4 1 0\n")
        with pytest.raises(ValueError):
            to_blp(f, ProblemClass.WEIGHTED_PARTIAL_MAXSAT)


class TestTableaux:
    def test_initially_all_unassigned(self):
        f = generate_random(6, 10, 3, seed=0)
        t = to_tableaux(to_blp(f, ProblemClass.MAXSAT))
        assert t.y.shape == (6,)
        assert (t.y == UNASSIGNED).all()

    def test_empty_formula_edge(self):
        p = to_blp(Formula(3, ()), ProblemClass.MAXSAT)
        t = to_tableaux(p)
        assert p.w.shape == (0,)
        assert p.a_y.shape == (0, 3)
        assert t.y.shape == (3,)

    def test_satisfaction_matches_reconstruction_from_formula(self):
        # b dropped from the tableaux must be recoverable: rebuild it from the
        # clause literals and check the row test against the direct walk
        rng = random.Random(7)
        f = generate_random(8, 25, 3, weighted=True, seed=11)
        p = to_blp(f, ProblemClass.WEIGHTED_MAXSAT)
        t = to_tableaux(p)
        b = np.array([sum(l.negated for l in c.literals) for c in f.clauses])
        for _ in range(100):
            y = np.array([rng.randint(0, 1) for _ in range(f.num_vars)])
            row_test = (t.a_y @ y + b) >= 1
            direct = [clause_satisfied_directly(c, y) for c in f.clauses]
            assert row_test.tolist() == direct


class TestObjective:
    def test_complementary_pair(self):
        f = parse_cnf("p cnf 1 2\n1 0\n-1 0\n")
        assert objective(f, ProblemClass.MAXSAT, [1]).value == 1

    def test_both_satisfied(self):
        f = parse_cnf("p cnf 2 2\n1 -2 0\n2 0\n")
        res = objective(f, ProblemClass.MAXSAT, [1, 1])
        assert res.value == 2
        assert res.satisfied == (True, True)
        assert res.hard_violations == ()

    def test_hard_violations_reported(self):
        f = parse_wcnf("p wcnf 1 2 9\n9 1 0\n1 -1 0\n")
        res = objective(f, ProblemClass.PARTIAL_MAXSAT, [0])
        assert res.hard_violations == (0,)
        assert res.value == 1

    def test_incomplete_assignment_rejected(self):
        f = parse_cnf("p cnf 2 1\n1 2 0\n")
        with pytest.raises(ValueError):
            objective(f, ProblemClass.MAXSAT, [1])
        with pytest.raises(ValueError):
            objective(f, ProblemClass.MAXSAT, [1, 2])

    @pytest.mark.parametrize("top", [2**62, 2**64])
    def test_weights_beyond_int64_are_exact(self, top):
        # two hard clauses of weight top: the optimum 2 * top overflows int64
        f = parse_wcnf(f"p wcnf 2 3 {top}\n{top} 1 0\n{top} 2 0\n1 -1 -2 0\n")
        cls = classify(f)
        res = objective(f, cls, (1, 1))
        assert res.value == 2 * top
        assert res.satisfied == (True, True, False)
        assert res.hard_violations == ()
        assert EpisodeScorer(f, cls).terminal_value(np.array([1, 1])) == 2 * top

    def test_matches_direct_walk_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(200):
            f = random_mixed_formula(rng, max_n=10, max_m=25)
            cls = classify(f)
            y = [rng.randint(0, 1) for _ in range(f.num_vars)]
            assert objective(f, cls, y).value == objective_directly(f, cls, y)

    def test_matches_weights_over_satisfied_mask(self):
        # objective walks the clause literals; the matrix row test must agree
        rng = random.Random(23)
        for i in range(80):
            cls = list(ProblemClass)[i % 4]
            weighted = cls in (ProblemClass.WEIGHTED_MAXSAT, ProblemClass.WEIGHTED_PARTIAL_MAXSAT)
            hard = rng.randint(1, 3) if i % 4 >= 2 else 0
            n, m = rng.randint(1, 12), rng.randint(hard + 1, 70)
            f = generate_random(n, m, min(3, n), weighted, hard, rng.randint(0, 10**6))
            assert classify(f) is cls
            p, weights = to_blp(f, cls), objective_weights(f, cls)
            for _ in range(10):
                y = [rng.randint(0, 1) for _ in range(n)]
                mask = satisfied_mask(p, np.array(y)).tolist()
                res = objective(f, cls, y)
                assert res.satisfied == tuple(mask)
                assert res.value == sum(w for w, s in zip(weights, mask) if s)
                assert res.hard_violations == tuple(
                    j for j, c in enumerate(f.clauses) if c.hard and not mask[j]
                )

    def test_unit_weight_rule_counts_satisfied(self):
        rng = random.Random(5)
        f = generate_random(6, 20, 3, seed=3)
        for _ in range(30):
            y = [rng.randint(0, 1) for _ in range(6)]
            res = objective(f, ProblemClass.MAXSAT, y)
            assert res.value == sum(res.satisfied)


class TestOptimalSolutionPreservation:
    def test_weighted_argmax_matches_original_semantics(self):
        # class-adjusted argmax restricted to hard-feasible assignments must
        # equal the argmax of soft weight subject to hard clauses
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(3, 8)
            m = rng.randint(4, 16)
            hard = rng.randint(1, 2)
            f = generate_random(n, m, min(3, n), True, hard, rng.randint(0, 10**6))
            cls = classify(f)
            blp_best, blp_set = -1, set()
            sem_best, sem_set = -1, set()
            for bits in itertools.product((0, 1), repeat=n):
                value = objective(f, cls, list(bits)).value
                if value > blp_best:
                    blp_best, blp_set = value, {bits}
                elif value == blp_best:
                    blp_set.add(bits)
                if all(
                    clause_satisfied_directly(c, bits) for c in f.clauses if c.hard
                ):
                    soft = sum(
                        c.weight
                        for c in f.clauses
                        if not c.hard and clause_satisfied_directly(c, bits)
                    )
                    if soft > sem_best:
                        sem_best, sem_set = soft, {bits}
                    elif soft == sem_best:
                        sem_set.add(bits)
            if sem_set:  # hard clauses jointly satisfiable
                assert blp_set == sem_set


def test_format_blp_dump():
    f = parse_cnf("p cnf 2 2\n1 -2 0\n2 0\n")
    text = format_blp(to_blp(f, ProblemClass.MAXSAT))
    assert "-1" in text and text.count("\n") == 3
