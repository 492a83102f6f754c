"""Engine units: UCT, thresholds, selection, backup, rank/significance,
theory budgets, and end-to-end solves against the oracle."""

import copy
import dataclasses
import math
import random
import re
import threading
import time
from collections import Counter
from itertools import chain

import pytest

from mctsat import (
    Action,
    Clause,
    ExploitRule,
    LevelStats,
    Literal,
    ProblemClass,
    RewardKind,
    SolverConfig,
    backup,
    brute_force,
    classify,
    derive_seed,
    exploration_arms,
    exploration_eligible,
    generate_random,
    objective,
    parse_cnf,
    parse_wcnf,
    rank,
    select_best_child,
    select_exploration_child,
    significance,
    soft_threshold,
    solve,
    theory_budgets,
)
from mctsat import mcts
from mctsat.mcts import EpisodeKernel
from mctsat_reference import shaped, shuffled_completion, uct_value, uniform_completion


def make_root(child_stats, parent_visits=None):
    """Level with arms given as (q_sum, visits, r_max) triples."""
    root = LevelStats(
        actions=tuple(Action(i // 2 + 1, i % 2) for i in range(len(child_stats))),
        visits=[visits for _, visits, _ in child_stats],
        q_sum=[q_sum for q_sum, _, _ in child_stats],
        r_max=[r_max for _, _, r_max in child_stats],
        r_min=[r_max for _, _, r_max in child_stats],
    )
    root.total = parent_visits if parent_visits is not None else sum(root.visits)
    return root


class TestUctValue:
    def test_formula_evaluation(self):
        root = make_root([(10.0, 2, 5.0)], parent_visits=4)
        value = uct_value(root, 0, 1.0)
        assert value == pytest.approx(5 + math.sqrt(math.log(4)), abs=1e-5)
        assert value == pytest.approx(6.17741, abs=1e-5)

    def test_zero_c_gives_pure_mean(self):
        root = make_root([(10.0, 2, 5.0)], parent_visits=4)
        assert uct_value(root, 0, 0.0) == 5.0

    def test_single_visit_each_no_bonus(self):
        root = make_root([(5.0, 1, 5.0)], parent_visits=1)
        assert uct_value(root, 0, 1.0) == 5.0

    def test_unvisited_child_rejected(self):
        root = make_root([(0.0, 1, 0.0)], parent_visits=1)
        root.visits[0] = 0
        with pytest.raises(ValueError):
            uct_value(root, 0, 1.0)


class TestSoftThreshold:
    def test_arithmetic(self):
        assert soft_threshold([2.0, 10.0], 0.9) == pytest.approx(9.2)

    def test_alpha_zero_is_min(self):
        assert soft_threshold([3.0, 7.0, 5.0], 0.0) == 3.0

    def test_alpha_one_is_max(self):
        assert soft_threshold([3.0, 7.0, 5.0], 1.0) == 7.0

    def test_clamped_to_max(self):
        # (1 - a) * x + a * x rounds one step above x here
        x, a = 49.45826703752868, 0.31205824641687296
        assert (1 - a) * x + a * x > x
        assert soft_threshold([x, x], a) == x

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([], 0.5)


class TestExplorationSelection:
    def test_alpha_zero_all_children_eligible(self):
        root = make_root([(1.0, 1, 1.0), (5.0, 1, 5.0), (9.0, 1, 9.0)])
        cfg = SolverConfig(alpha=0.0, uct_c=0.0)
        assert exploration_eligible(root, cfg) == [0, 1, 2]

    def test_alpha_one_argmax_only(self):
        root = make_root([(1.0, 1, 1.0), (9.0, 1, 9.0), (9.0, 1, 9.0)])
        cfg = SolverConfig(alpha=1.0, uct_c=0.0)
        assert exploration_eligible(root, cfg) == [1, 2]

    def test_threshold_cut(self):
        # UCT values 1, 5, 9 at alpha 0.9: threshold 8.2 keeps only the 9
        root = make_root([(1.0, 1, 1.0), (5.0, 1, 5.0), (9.0, 1, 9.0)])
        cfg = SolverConfig(alpha=0.9, uct_c=0.0)
        assert exploration_eligible(root, cfg) == [2]

    def test_equal_uct_uniform_tie_break(self):
        root = make_root([(3.0, 1, 3.0), (3.0, 1, 3.0)])
        cfg = SolverConfig(alpha=0.9, uct_c=0.0)
        rng = random.Random(5)
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            counts[select_exploration_child(root, cfg, rng)] += 1
        assert len(counts) == 2
        for count in counts.values():
            assert abs(count / draws - 0.5) < 0.02

    def test_no_children_rejected(self):
        root = make_root([])
        with pytest.raises(ValueError):
            select_exploration_child(root, SolverConfig(), random.Random(0))
        with pytest.raises(ValueError):
            next(exploration_arms(root, SolverConfig(), random.Random(0), 1))


class TestExplorationArms:
    """``exploration_arms`` against ``select_exploration_child`` on two
    copies of a level, each draw backed up with the same reward."""

    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5, -1.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.0])
    def test_draws_match_reference(self, c, alpha):
        self.check_draws(c, alpha)

    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5, -1.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("stretch", [1, 2, 5])
    def test_draws_match_reference_at_stretch(self, c, alpha, stretch, monkeypatch):
        # short stretches: many carried-over re-sorts per call (3 x 1 + 7 draws
        # are 10 stretches at length 1)
        monkeypatch.setattr(mcts, "STRETCH", stretch)
        self.check_draws(c, alpha)

    @staticmethod
    def check_draws(c, alpha):
        stretch = mcts.STRETCH
        rng = random.Random(f"{c} {alpha}")
        cfg = SolverConfig(alpha=alpha, uct_c=c)
        for episodes in (1, stretch - 1, stretch, stretch + 1, 3 * stretch + 7):
            for tied in (True, False):
                k = rng.randint(2, 40)

                def reward():
                    return float(rng.randrange(3)) if tied else rng.uniform(0.0, 91.0)

                ref = LevelStats.fresh([Action(i // 2 + 1, i % 2) for i in range(k)])
                for arm in list(range(k)) + [rng.randrange(k) for _ in range(rng.randrange(60))]:
                    backup(ref, arm, reward())
                fast = copy.deepcopy(ref)
                seed = rng.random()
                ref_rng, fast_rng = random.Random(seed), random.Random(seed)
                drawn, expected = [], []
                for arm in exploration_arms(fast, cfg, fast_rng, episodes):
                    expected.append(select_exploration_child(ref, cfg, ref_rng))
                    drawn.append(arm)
                    r = reward()
                    backup(ref, expected[-1], r)
                    backup(fast, arm, r)
                assert drawn == expected and len(drawn) == episodes
                assert fast == ref
                assert fast_rng.getstate() == ref_rng.getstate()

    def test_equal_values_keep_every_arm_eligible(self):
        # the unclamped threshold lies one step above these equal values
        x, alpha = 49.45826703752868, 0.31205824641687296
        level = LevelStats.fresh([Action(i // 2 + 1, i % 2) for i in range(4)])
        for arm in range(4):
            backup(level, arm, x)
        cfg = SolverConfig(alpha=alpha, uct_c=0.0)
        assert exploration_eligible(level, cfg) == [0, 1, 2, 3]
        assert next(exploration_arms(level, cfg, random.Random(3), 1)) in range(4)


class TestOverflowingScale:
    """A UCT scale or value past the float range would make every threshold
    nan and the eligible list empty: both selection paths refuse it."""

    @pytest.mark.parametrize(
        "c, reward", [(math.inf, 3.0), (math.nan, 3.0), (1e308, 3.0), (1e308, 1e308), (-1e308, -1e308)]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_refused_by_name(self, c, reward, alpha):
        level = LevelStats.fresh([Action(i // 2 + 1, i % 2) for i in range(4)])
        for arm in (0, 1, 2, 3, 0, 1):  # N = 6: 1e308 x sqrt(2 ln 6) is past the range
            backup(level, arm, reward)
        cfg = SolverConfig(alpha=alpha, uct_c=c)
        with pytest.raises(ValueError, match="uct_c"):
            exploration_eligible(level, cfg)
        with pytest.raises(ValueError, match="uct_c"):
            next(exploration_arms(level, cfg, random.Random(0), 1))


class TestOutOfRangeAlpha:
    """An alpha outside [0, 1] has no soft threshold, and a nan one would make
    every threshold nan and the eligible list empty: both selection paths
    refuse it, ``exploration_arms`` before its first draw."""

    @pytest.mark.parametrize("alpha", [math.nan, 1.5, -0.5])
    def test_refused_by_name(self, alpha):
        level = LevelStats.fresh([Action(i // 2 + 1, i % 2) for i in range(4)])
        for arm in range(4):
            backup(level, arm, 3.0)
        cfg = SolverConfig(alpha=alpha)
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got"):
            select_exploration_child(level, cfg, random.Random(0))
        rng = random.Random(0)
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got"):
            next(exploration_arms(level, cfg, rng, 1))
        assert rng.getstate() == random.Random(0).getstate()


class TestBackup:
    def test_fresh_child_single_backup(self):
        root = make_root([(0.0, 0, -math.inf)], parent_visits=0)
        root.r_min[0] = math.inf
        backup(root, 0, 4.0)
        assert (root.q_sum[0], root.visits[0], root.r_max[0]) == (4.0, 1, 4.0)
        assert root.total == 1 and sum(root.q_sum) == 4.0

    def test_two_backups_accumulate(self):
        root = make_root([(0.0, 0, -math.inf)], parent_visits=0)
        root.r_min[0] = math.inf
        backup(root, 0, 3.0)
        backup(root, 0, 5.0)
        assert root.q_sum[0] == 8.0
        assert root.visits[0] == 2
        assert root.r_max[0] == 5.0
        assert root.r_min[0] == 3.0

    def test_root_visits_equals_sum_of_children(self):
        root = make_root([(0.0, 0, -math.inf)] * 3, parent_visits=0)
        rng = random.Random(1)
        for _ in range(50):
            backup(root, rng.randrange(3), rng.random())
        assert root.total == sum(root.visits) == 50


def backed_up_level(rng, k, episodes):
    """Fresh level of k arms after one backup per arm and ``episodes`` more
    on random arms, with random rewards."""
    level = LevelStats.fresh([Action(i // 2 + 1, i % 2) for i in range(k)])
    for arm in list(range(k)) + [rng.randrange(k) for _ in range(episodes)]:
        backup(level, arm, rng.uniform(0.0, 100.0))
    return level


class TestArmCaches:
    def test_backup_keeps_caches_exact(self):
        rng = random.Random(31)
        level = LevelStats.fresh([Action(i // 2 + 1, i % 2) for i in range(6)])
        assert level.mean == level.rad == [math.inf] * 6
        for _ in range(300):
            backup(level, rng.randrange(6), rng.choice([0.0, 1.0, rng.uniform(0, 91)]))
            for i, v in enumerate(level.visits):
                if v:
                    assert level.mean[i] == level.q_sum[i] / v
                    assert level.rad[i] == 1 / math.sqrt(v)

    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5])
    def test_eligible_matches_uct_value(self, c):
        rng = random.Random(int(10 * c))
        for _ in range(200):
            level = backed_up_level(rng, rng.randint(1, 40), rng.randint(0, 200))
            alpha = rng.choice([0.0, 0.5, 0.9, 1.0, rng.random()])
            values = [uct_value(level, i, c) for i in range(len(level.visits))]
            thr = min(soft_threshold(values, alpha), max(values))
            expected = [i for i, u in enumerate(values) if u >= thr]
            assert exploration_eligible(level, SolverConfig(alpha=alpha, uct_c=c)) == expected

    def test_direct_construction_derives_caches(self):
        root = make_root([(10.0, 2, 6.0), (4.0, 4, 1.0), (0.0, 0, -math.inf)], parent_visits=6)
        assert root.mean == [5.0, 1.0, math.inf]
        assert root.rad == [1 / math.sqrt(2), 0.5, math.inf]
        assert uct_value(root, 0, 1.0) == 5.0 + math.sqrt(2 * math.log(6)) * (1 / math.sqrt(2))

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_unvisited_arm_rejected(self, c):
        for visits, total in (([1, 0, 1], 2), ([1, 0], 1)):
            level = LevelStats.fresh([Action(i // 2 + 1, i % 2) for i in range(len(visits))])
            for arm, v in enumerate(visits):
                for _ in range(v):
                    backup(level, arm, 3.0)
            assert level.total == total
            with pytest.raises(ValueError, match="every arm needs a visit"):
                exploration_eligible(level, SolverConfig(alpha=0.5, uct_c=c))
            with pytest.raises(ValueError, match="every arm needs a visit"):
                next(exploration_arms(level, SolverConfig(alpha=0.5, uct_c=c), random.Random(0), 1))
            with pytest.raises(ValueError, match="every arm needs a visit"):
                select_best_child(level, ExploitRule.MEAN_Q, random.Random(0))

    def test_frozen_snapshot_is_read_only(self):
        level = backed_up_level(random.Random(4), 4, 20)
        snap = level.frozen()
        assert snap.mean == tuple(level.mean) and snap.rad == tuple(level.rad)
        for name in ("visits", "q_sum", "r_max", "r_min", "mean", "rad"):
            with pytest.raises(TypeError):
                getattr(snap, name)[0] = 0
        first = (snap.visits[0], snap.q_sum[0], snap.mean[0], snap.rad[0])
        backup(level, 0, 1.0)
        assert (snap.visits[0], snap.q_sum[0], snap.mean[0], snap.rad[0]) == first

    def test_solve_snapshots_are_read_only(self):
        f = generate_random(5, 12, 3, seed=8)
        res = solve(f, ProblemClass.MAXSAT, SolverConfig(seed=2))
        for root in res.level_roots:
            assert isinstance(root.mean, tuple) and isinstance(root.rad, tuple)
            assert root.mean == tuple(q / v for q, v in zip(root.q_sum, root.visits))


class TestRank:
    def test_example(self):
        assert rank([5, 1, 3]) == [3, 1, 2]

    def test_tie_by_original_index(self):
        assert rank([2, 2]) == [1, 2]

    def test_singleton(self):
        assert rank([7]) == [1]

    def test_is_permutation(self):
        rng = random.Random(3)
        for _ in range(50):
            values = [rng.randint(0, 5) for _ in range(rng.randint(1, 10))]
            assert sorted(rank(values)) == list(range(1, len(values) + 1))


class TestSignificance:
    def test_agreeing_ranks_keep_means(self):
        assert significance([1.0, 2.0], [3.0, 4.0]) == [1.0, 2.0]

    def test_disagreeing_ranks_take_maxes(self):
        assert significance([1.0, 2.0], [4.0, 3.0]) == [4.0, 3.0]

    def test_singleton_keeps_mean(self):
        assert significance([1.5], [9.0]) == [1.5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            significance([1.0], [1.0, 2.0])


class TestSelectBestChild:
    def test_mean_rule(self):
        root = make_root([(1.0, 1, 1.0), (3.0, 1, 3.0)])
        chosen = select_best_child(root, ExploitRule.MEAN_Q, random.Random(0))
        assert chosen == 1

    def test_significance_rule_takes_max_statistic(self):
        # means 5, 2 but maxes 6, 9: the projected significance score is the
        # max statistic, so the second child wins
        root = make_root([(10.0, 2, 6.0), (4.0, 2, 9.0)])
        chosen = select_best_child(root, ExploitRule.SIGNIFICANCE, random.Random(0))
        assert chosen == 1

    def test_significance_equals_projected_operator(self):
        rng = random.Random(11)
        for _ in range(100):
            k = rng.randint(1, 6)
            stats = []
            for _ in range(k):
                visits = rng.randint(1, 5)
                rewards = [rng.randint(0, 10) for _ in range(visits)]
                stats.append((float(sum(rewards)), visits, float(max(rewards))))
            root = make_root(stats)
            means = [q / v for q, v in zip(root.q_sum, root.visits)]
            maxes = list(root.r_max)
            sig = significance(means, maxes)
            projected = [maxes[i] for i in range(k)]  # Proj maps both branches to maxes
            best = max(projected)
            eligible = {i for i, v in enumerate(projected) if v == best}
            chosen = select_best_child(root, ExploitRule.SIGNIFICANCE, rng)
            assert chosen in eligible
            # the operator output never leaves the {mean, max} pair per child
            for i, value in enumerate(sig):
                assert value in (means[i], maxes[i])

    def test_mean_tie_break_uniform(self):
        root = make_root([(4.0, 2, 3.0), (2.0, 1, 2.0)])
        rng = random.Random(17)
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            counts[select_best_child(root, ExploitRule.MEAN_Q, rng)] += 1
        for count in counts.values():
            assert abs(count / draws - 0.5) < 0.02


class TestTheoryBudgets:
    def test_explore_bound_closed_form(self):
        assert theory_budgets(2, 0.05).explore_bound == 11

    def test_single_optimum_execution_bound(self):
        assert theory_budgets(4, 0.05, num_optima=1).execution_bound == 1

    def test_three_optima_execution_bound(self):
        assert theory_budgets(4, 0.05, num_optima=3).execution_bound == 11

    def test_child_visit_bound_value(self):
        expected = math.ceil(math.log(1 / 0.05) / math.log1p(1 / 3)) + 4
        assert theory_budgets(2, 0.5, delta1=0.05).child_visit_bound == expected

    def test_monotone_in_n_and_inverse_epsilon(self):
        for eps_a, eps_b in [(0.2, 0.1), (0.1, 0.05), (0.05, 0.01)]:
            for n in range(1, 11):
                a = theory_budgets(n, eps_a)
                b = theory_budgets(n, eps_b)
                assert b.explore_bound >= a.explore_bound
        for eps in (0.2, 0.05):
            previous = 0
            for n in range(1, 13):
                bound = theory_budgets(n, eps).explore_bound
                assert bound >= previous
                previous = bound

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theory_budgets(0, 0.05)
        with pytest.raises(ValueError):
            theory_budgets(2, 0.0)
        with pytest.raises(ValueError):
            theory_budgets(2, 0.05, delta1=1.0)
        with pytest.raises(ValueError):
            theory_budgets(2, 0.05, num_optima=0)

    @pytest.mark.parametrize("n, epsilon", [(1023, 0.1), (1100, 0.1), (1020, 1e-300)])
    def test_explore_bound_past_float_range_refused_by_name(self, n, epsilon):
        with pytest.raises(ValueError, match=f"n = {n}, epsilon = {epsilon!r}"):
            theory_budgets(n, epsilon)

    def test_execution_bound_for_many_optima(self):
        # log(s) - log(s - 1) rounds to 0.0 here; the bound is s ln(s / eps) (1 - 1/(2s)) + ...
        s = 10**15
        bound = theory_budgets(10, 0.05, num_optima=s).execution_bound
        assert bound == pytest.approx(s * math.log(s / 0.05), rel=1e-12)

    @pytest.mark.parametrize(
        "num_optima, epsilon, power",
        [(10**308, 0.05, "10**308.0"), (2**1100, 0.05, "10**331.1"), (10**307, 0.5, "10**307.0")],
    )
    def test_execution_bound_past_float_range_refused_by_name(self, num_optima, epsilon, power):
        message = rf"num_optima = {re.escape(power)}, epsilon = {epsilon}"
        with pytest.raises(ValueError, match=message):
            theory_budgets(10, epsilon, num_optima=num_optima)

    def test_explore_bound_at_float_edge(self):
        bound = theory_budgets(1022, 0.1).explore_bound
        assert isinstance(bound, int) and 1e307 < bound < math.inf


class TestSharedScaleTable:
    """Solves in threads share ``mcts._ROOT_2_LOG``, the table of
    sqrt(2 ln t): growing it from several threads at once must leave every
    entry at its value, or later solves in the process read wrong scales."""

    class YieldingTable(list):
        """Sleeps before each entry it appends, which releases the interpreter
        lock, so other threads run in the middle of every growth."""

        def extend(self, entries):
            for entry in entries:
                time.sleep(1e-5)
                self.append(entry)

    def test_concurrent_growth_keeps_every_entry(self, monkeypatch):
        table = self.YieldingTable([math.nan])
        monkeypatch.setattr(mcts, "_ROOT_2_LOG", table)
        f = generate_random(6, 30, 3, seed=4)
        results = []
        threads = [
            threading.Thread(
                target=lambda seed: results.append(
                    solve(f, ProblemClass.MAXSAT, SolverConfig(explore_factor=40, seed=seed))
                ),
                args=(i,),
            )
            for i in range(4)  # more threads than the CPUs of a small runner
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4
        assert len(table) >= 40 * 30  # grown to level 0's budget
        wrong = [t for t in range(1, len(table)) if table[t] != math.sqrt(2.0 * math.log(t))]
        assert wrong == []


class TestDeriveSeed:
    def test_deterministic_and_path_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1) != derive_seed(2)


class TestSolve:
    def test_single_positive_clause(self):
        f = parse_cnf("p cnf 1 1\n1 0\n")
        res = solve(f, ProblemClass.MAXSAT, SolverConfig(seed=3))
        assert res.assignment == (1,)
        assert res.objective == 1

    def test_complementary_pair(self):
        f = parse_cnf("p cnf 1 2\n1 0\n-1 0\n")
        res = solve(f, ProblemClass.MAXSAT, SolverConfig(seed=4))
        assert res.objective == 1

    def test_fixed_seed_determinism(self):
        f = generate_random(8, 20, 3, weighted=True, seed=6)
        cfg = SolverConfig(seed=99)
        a = solve(f, ProblemClass.WEIGHTED_MAXSAT, cfg)
        b = solve(f, ProblemClass.WEIGHTED_MAXSAT, cfg)
        assert a.assignment == b.assignment
        assert a.objective == b.objective
        assert a.satisfied_mask == b.satisfied_mask
        assert a.hard_violations == b.hard_violations
        assert a.stats.episodes == b.stats.episodes
        assert a.stats.per_level == b.stats.per_level

    def test_objective_recomputed_independently(self):
        f = generate_random(7, 18, 3, weighted=True, hard_count=2, seed=13)
        cls = classify(f)
        res = solve(f, cls, SolverConfig(seed=21))
        check = objective(f, cls, list(res.assignment))
        assert check.value == res.objective
        assert check.satisfied == res.satisfied_mask
        assert check.hard_violations == res.hard_violations

    def test_budget_floor_is_children_plus_one(self):
        f = parse_cnf("p cnf 4 1\n1 2 3 4 0\n")
        res = solve(f, ProblemClass.MAXSAT, SolverConfig(explore_factor=0.01, seed=0))
        # the first two levels take 2(n - k) + 1 episodes; by level 2 the
        # committed prefix satisfies the clause, so each level from there on is
        # decided and takes its 2(n - k) expansion episodes only
        assert res.stats.per_level == (9, 7, 4, 2)

    def test_nominal_budget_ceil(self):
        f = parse_cnf("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n")
        res = solve(f, ProblemClass.MAXSAT, SolverConfig(explore_factor=7, seed=0))
        assert res.stats.n_explore == 21
        # the last level, one free variable, is decided: its two expansion episodes
        assert res.stats.per_level == (21, 2)
        assert res.stats.episodes == 23

    def test_invalid_config_rejected(self):
        f = parse_cnf("p cnf 1 1\n1 0\n")
        with pytest.raises(ValueError):
            solve(f, ProblemClass.MAXSAT, SolverConfig(alpha=1.5))
        with pytest.raises(ValueError):
            solve(f, ProblemClass.MAXSAT, SolverConfig(explore_factor=0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("uct_c", math.nan),
            ("uct_c", math.inf),
            ("uct_c", -math.inf),
            ("explore_factor", math.inf),
            ("explore_factor", math.nan),
            # finite knobs whose float arithmetic overflows: explore_factor x m,
            # and c x sqrt(2 ln N) (or twice it, with the largest reward)
            ("explore_factor", 1e308),
            ("uct_c", 1e308),
            ("uct_c", -1e308),
            ("uct_c", 5e307),
        ],
    )
    def test_non_finite_config_rejected_by_name(self, field, value):
        f = parse_cnf("p cnf 2 2\n1 2 0\n-1 0\n")
        with pytest.raises(ValueError, match=field):
            solve(f, ProblemClass.MAXSAT, SolverConfig(**{field: value}))

    def test_tree_accounting_invariants(self):
        # search_level writes the level lists itself; they must be what
        # ``backup`` would have written, the caches exactly
        rng = random.Random(2)
        for reward in [kind for kind in RewardKind for _ in range(5)]:
            f = generate_random(6, 14, 3, weighted=rng.random() < 0.5, seed=rng.randint(0, 999))
            cls = classify(f)
            cfg = SolverConfig(seed=rng.randint(0, 999), reward=reward)
            res = solve(f, cls, cfg)
            assert len(res.level_roots) == f.num_vars
            assert res.stats.per_level == tuple(r.total for r in res.level_roots)
            assert res.stats.episodes == sum(res.stats.per_level)
            for root in res.level_roots:
                assert root.total == sum(root.visits)
                for a, visits in enumerate(root.visits):
                    assert root.mean[a] == root.q_sum[a] / visits
                    assert root.rad[a] == 1.0 / math.sqrt(visits)
                nodes = [(sum(root.q_sum), root.total, min(root.r_min), max(root.r_max))]
                nodes += zip(root.q_sum, root.visits, root.r_min, root.r_max)
                for q_sum, visits, r_min, r_max in nodes:
                    mean = q_sum / visits
                    assert r_min - 1e-9 <= mean <= r_max + 1e-9

    @pytest.mark.parametrize("reward", list(RewardKind), ids=lambda r: r.value)
    def test_each_level_is_one_search_level_call(self, monkeypatch, reward):
        # solve calls search_level through the module global, once per level,
        # so a wrapper set there sees every level and changes no result
        calls = []
        level_fn = mcts.search_level

        def counting(*args):
            calls.append(len(args[0][1]))  # the level's free variables
            return level_fn(*args)

        for n, weighted, hard in [(5, False, 0), (9, True, 2)]:
            f = generate_random(n, 3 * n, 3, weighted=weighted, hard_count=hard, seed=n)
            cls = classify(f)
            cfg = SolverConfig(seed=n + 1, reward=reward)
            plain = solve(f, cls, cfg)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(mcts, "search_level", counting)
                wrapped = solve(f, cls, cfg)
            assert calls == list(range(n, 0, -1))
            for field in dataclasses.fields(wrapped):
                got, want = getattr(wrapped, field.name), getattr(plain, field.name)
                if field.name == "stats":  # the wall time is the only field that may differ
                    got = dataclasses.replace(got, wall_ms=want.wall_ms)
                assert got == want, field.name

    @pytest.mark.parametrize(
        "shape, reward, bits, value, visits",
        [
            (
                "uf20-01", RewardKind.TERMINAL, "11111011000001001000", 91,
                (4, 2, 1, 10, 21, 3, 1, 77, 2, 30, 4, 35, 8, 114, 1, 1, 50, 9, 1, 6,
                 1, 1, 5, 18, 20, 1, 36, 1, 3, 13, 18, 19, 2, 1, 6, 13, 72, 1, 11, 15),
            ),
            (
                "wpms", RewardKind.INCREMENT_WEIGHTED, "011111100011", 57575,
                (1, 1, 1, 1, 126, 7, 6, 1, 1, 4, 1, 1, 4, 2, 1, 112, 3, 1, 1, 1, 1, 1, 1, 1),
            ),
            (
                "wpms", RewardKind.PREFIX_WEIGHTED, "100001011111", 57185,
                (1, 1, 79, 1, 2, 1, 1, 1, 60, 1, 1, 1, 1, 82, 1, 1, 2, 37, 1, 1, 1, 1, 1, 1),
            ),
            (
                "wpms", RewardKind.MIXED, "011111001010", 57478,
                (1, 1, 86, 1, 2, 1, 1, 1, 58, 1, 1, 1, 1, 38, 1, 1, 2, 76, 1, 1, 1, 1, 1, 1),
            ),
            # unit weights, weights and a hard top weight through the step gains
            (
                "maxsat", RewardKind.INCREMENT_WEIGHTED, "001011100101", 40,
                (1, 2, 59, 1, 82, 64, 1, 1, 8, 2, 7, 1, 3, 7, 1, 8, 3, 3, 1, 2, 3, 1, 3, 16),
            ),
            (
                "maxsat", RewardKind.PREFIX_WEIGHTED, "001011100101", 40,
                (1, 1, 1, 1, 1, 1, 255, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
            ),
            (
                "maxsat", RewardKind.MIXED, "001011100101", 40,
                (1, 1, 1, 1, 1, 1, 254, 1, 1, 3, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
            ),
            (
                "wmaxsat", RewardKind.INCREMENT_WEIGHTED, "000011100101", 20159,
                (1, 1, 2, 1, 21, 1, 1, 1, 3, 1, 1, 1, 1, 232, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1),
            ),
            (
                "wmaxsat", RewardKind.PREFIX_WEIGHTED, "011111100011", 20159,
                (1, 2, 1, 1, 1, 1, 132, 1, 1, 125, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
            ),
            (
                "wmaxsat", RewardKind.MIXED, "011111100011", 20159,
                (1, 21, 1, 1, 1, 1, 124, 1, 1, 114, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
            ),
            (
                "pms", RewardKind.INCREMENT_WEIGHTED, "010111110010", 116,
                (1, 1, 1, 1, 113, 102, 8, 1, 2, 4, 2, 1, 10, 2, 1, 14, 8, 1, 2, 1, 1, 1, 1, 1),
            ),
            (
                "pms", RewardKind.PREFIX_WEIGHTED, "010111100011", 116,
                (1, 1, 5, 1, 4, 1, 1, 1, 95, 1, 1, 1, 1, 71, 1, 1, 3, 84, 1, 1, 1, 1, 1, 1),
            ),
            (
                "pms", RewardKind.MIXED, "010111001010", 115,
                (1, 1, 95, 1, 2, 1, 1, 1, 5, 1, 1, 1, 1, 75, 1, 1, 2, 83, 1, 1, 1, 1, 1, 1),
            ),
        ],
        ids=[
            "uf20-01-terminal", "gen-r1", "gen-r2", "gen-mixed",
            *(f"{c}-{r}" for c in ("maxsat", "wmaxsat", "pms") for r in ("r1", "r2", "mixed")),
        ],
    )
    def test_rng_stream_pinned_at_full_budget(self, uf20_texts, shape, reward, bits, value, visits):
        # hundreds of exploration draws, completions and shuffles per level:
        # any change to the RNG calls moves these values
        if shape == "uf20-01":
            f = parse_cnf(uf20_texts[0])
        else:
            weighted, hard = {"wpms": (True, 2), "maxsat": (False, 0),
                              "wmaxsat": (True, 0), "pms": (False, 2)}[shape]
            f = generate_random(12, 40, 3, weighted=weighted, hard_count=hard, seed=4)
        res = solve(f, classify(f), SolverConfig(seed=1, reward=reward))
        assert "".join(map(str, res.assignment)) == bits
        assert res.objective == value
        assert res.level_roots[0].visits == visits

    @pytest.mark.parametrize("top", [2**62, 2**64, 2**1017])
    def test_weights_beyond_int64_are_exact(self, top):
        # two hard clauses of weight top: the optimum 2 * top overflows int64;
        # 2**1017 is the largest power of two that solve takes here: total
        # weight x (n + 1) x level budget is about 63 * 2**1018 < 2**1024
        f = parse_wcnf(f"p wcnf 2 3 {top}\n{top} 1 0\n{top} 2 0\n1 -1 -2 0\n")
        cls = classify(f)
        truth = brute_force(f, cls)
        res = solve(f, cls, SolverConfig(seed=1))
        assert truth.optimum == 2 * top
        assert res.objective == truth.optimum
        assert res.hard_violations == ()
        assert res.assignment in truth.optimal_set

    @pytest.mark.parametrize(
        "weights", [(2**1100, 3), (2**1022, 2**1022)], ids=["float-overflow", "sum-overflow"]
    )
    def test_weights_beyond_float_rejected_by_name(self, weights):
        # 2**1100 is no float; two clauses of 2**1022 are, but their sum is not
        a, b = weights
        f = parse_wcnf(f"p wcnf 2 2\n{a} 1 2 0\n{b} -1 0\n")
        cls = classify(f)
        for reward in RewardKind:
            with pytest.raises(ValueError, match="largest float"):
                solve(f, cls, SolverConfig(seed=1, reward=reward))
        # the exact layers keep these weights
        truth = brute_force(f, cls)
        assert truth.optimum == a + b
        assert objective(f, cls, [0, 1]).value == a + b

    def test_budget_beyond_float_names_explore_factor(self, uf20_texts):
        # unit weights hold a float reward; the budget 1e306 x 91 is what overflows
        f = parse_cnf(uf20_texts[0])
        cfg = SolverConfig(explore_factor=1e306)
        message = r"explore_factor 1e\+306 x 91 clauses gives a level budget of 9.1e\+307"
        with pytest.raises(ValueError, match=message):
            solve(f, ProblemClass.MAXSAT, cfg)

    def test_matches_oracle_on_small_unweighted(self):
        rng = random.Random(500)
        hits = 0
        for i in range(15):
            f = generate_random(
                rng.randint(4, 8), rng.randint(8, 18), 3, seed=rng.randint(0, 10**6)
            )
            truth = brute_force(f, ProblemClass.MAXSAT)
            res = solve(
                f,
                ProblemClass.MAXSAT,
                SolverConfig(explore_factor=50, exploit_rule=ExploitRule.SIGNIFICANCE, seed=i),
            )
            hits += res.objective == truth.optimum
        assert hits == 15


def reference_search(f, cls, cfg, decide=True):
    """``solve``'s search from its public reference helpers: the final
    assignment, the levels' statistics and which levels were decided.

    An arm's reward is fixed when the free variables other than its own occur
    in no clause that the arm leaves unsatisfied: no later step can gain.  A
    level is decided when every arm's reward is fixed, and then spends only
    its expansion, one episode per arm.  With ``decide`` off every level
    spends its full budget, max(nominal, arms + 1) episodes, as the paper's
    search does."""
    kernel = EpisodeKernel(f, cls)
    rng = random.Random(cfg.seed)
    n, m = f.num_vars, f.num_clauses
    nominal = math.ceil(cfg.explore_factor * m)
    increment = cfg.reward is RewardKind.INCREMENT_WEIGHTED
    all_clauses = (1 << m) - 1
    y, free, point = 0, list(range(n)), EpisodeKernel.START
    best_value, best_y, levels, decided = -1, 0, [], []

    def fixed(rest, start):
        others = 0  # the clauses that the other free variables occur in
        for u in rest:
            others |= kernel.lit[u][0] | kernel.lit[u][1]
        return not others & (all_clauses ^ start[1])

    while free:
        arms = []
        for v in free:
            rest = [u for u in free if u != v]  # shared by both arms, shuffled in place
            for bit in (0, 1):
                arms.append((y | bit << v, rest, kernel.advance(point, (v,), bit, increment)))
        level = LevelStats.fresh([Action(v + 1, bit) for v in free for bit in (0, 1)])
        decided.append(all(fixed(rest, start) for _, rest, start in arms))
        budget = len(arms) if decide and decided[-1] else max(nominal, len(arms) + 1)
        for arm in chain(range(len(arms)), exploration_arms(level, cfg, rng, budget - len(arms))):
            child_y, rest, start = arms[arm]
            if cfg.reward is RewardKind.TERMINAL:
                full = uniform_completion(child_y, sum(1 << u for u in rest), n, rng)
                value = kernel.evaluate(full)[0]
                reward = float(value)
            else:
                order, bits = shuffled_completion(rest, rng)
                reward, value = shaped(kernel, start, order, bits, cfg.reward)
                full = child_y | sum((bits >> i & 1) << u for i, u in enumerate(order))
            if value > best_value:
                best_value, best_y = value, full
            backup(level, arm, reward)
        y, rest, point = arms[select_best_child(level, cfg.exploit_rule, rng)]
        free = sorted(rest)
        levels.append(level)
    # the incumbent wins only when strictly better than the committed path
    final_y = best_y if best_value > kernel.evaluate(y)[0] else y
    return tuple(final_y >> v & 1 for v in range(n)), levels, decided


def assert_solve_matches_reference(f, cls, cfg):
    """``solve`` and ``reference_search`` give the same answer and the same
    level statistics, float for float."""
    assignment, levels, _ = reference_search(f, cls, cfg)
    res = solve(f, cls, cfg)
    assert res.assignment == assignment
    assert res.level_roots == tuple(level.frozen() for level in levels)
    assert len(levels) == f.num_vars


class TestReferenceSearch:
    """``solve``, whose levels run their episodes and backups inline, against
    the same search run through the reference helpers: equal floats, not
    close ones."""

    CLASSES = pytest.mark.parametrize(
        "weighted, hard", [(False, 0), (True, 0), (False, 2), (True, 2)],
        ids=["maxsat", "wmaxsat", "pms", "wpms"],
    )
    REWARDS = pytest.mark.parametrize("reward", list(RewardKind), ids=lambda r: r.value)

    @staticmethod
    def check(n, m, weighted, hard, reward):
        f = generate_random(n, m, 3, weighted=weighted, hard_count=hard, seed=17 + 3 * hard)
        cfg = SolverConfig(seed=5 + weighted, reward=reward)
        assert_solve_matches_reference(f, classify(f), cfg)

    @REWARDS
    @CLASSES
    def test_solve_matches_reference(self, weighted, hard, reward):
        # n = 10 puts two bytes of variables, so two tables, in play
        self.check(10, 30, weighted, hard, reward)

    @REWARDS
    @CLASSES
    def test_solve_matches_reference_at_shaped_mix_size(self, weighted, hard, reward):
        # the benchmark's shaped size: levels of up to 28 arms, walks of up to 13 steps
        self.check(14, 50, weighted, hard, reward)


class TestDecidedLevels:
    """The decided-level rule against the full-budget search, the reference
    with the rule off: at every level that the rule decides, exploration
    could change no commit.  Each arm's reward is one constant, every later
    level is decided too, and the full run's commit scores are those
    constants, so its best arms are the best arms after expansion.  ``solve``
    spends every episode the full run spends up to the first decided level,
    on the same draws.

    The scores are the constants exactly under the significance rule (r_max)
    and for terminal rewards, integers whose sums do not round.  A mean of a
    fractional constant r over v visits is its running sum over v, which can
    round up to v/2 units in the last place away from r: equal rewards can
    then get unequal means, and the full run's mean rule breaks some of their
    ties by that rounding.  A decided level commits on r itself."""

    @staticmethod
    def check(f, cls, cfg):
        _, full, decided = reference_search(f, cls, cfg, decide=False)
        res = solve(f, cls, cfg)
        first = decided.index(True)  # the last level, with one free variable, is decided
        assert all(decided[first:])
        for level in full[first:]:
            assert level.r_min == level.r_max  # each arm's one reward
            scores = level.mean if cfg.exploit_rule is ExploitRule.MEAN_Q else level.r_max
            for r, score, v in zip(level.r_max, scores, level.visits):
                assert abs(score - r) <= v * 2**-53 * abs(r)
            if cfg.exploit_rule is ExploitRule.SIGNIFICANCE or cfg.reward is RewardKind.TERMINAL:
                assert scores == level.r_max
        assert res.level_roots[:first] == tuple(level.frozen() for level in full[:first])
        # the first decided level's expansion draws are the full run's; past its
        # commit the streams part, and each level takes its expansion only
        assert res.level_roots[first].r_max == tuple(full[first].r_max)
        for level in res.level_roots[first:]:
            assert level.visits == (1,) * len(level.actions)
        return len(decided) - first

    def test_uf20_fixtures(self, uf20_texts):
        decided = 0
        for text in uf20_texts:
            f = parse_cnf(text)
            for seed in (1, 2):
                decided += self.check(f, ProblemClass.MAXSAT, SolverConfig(seed=seed))
        assert decided > 40  # more than the last level of each solve

    @pytest.mark.parametrize("rule", list(ExploitRule), ids=lambda r: r.value)
    @pytest.mark.parametrize(
        "weighted, hard", [(False, 0), (True, 0), (False, 2), (True, 2)],
        ids=["maxsat", "wmaxsat", "pms", "wpms"],
    )
    def test_shaped_mix_size(self, weighted, hard, rule):
        decided = 0
        for i, reward in enumerate(
            [RewardKind.INCREMENT_WEIGHTED, RewardKind.PREFIX_WEIGHTED, RewardKind.MIXED]
        ):
            f = generate_random(14, 50, 3, weighted, hard, seed=derive_seed(i, 14))
            cfg = SolverConfig(seed=i, reward=reward, exploit_rule=rule)
            decided += self.check(f, classify(f), cfg)
        assert decided > 3

    def test_clause_with_both_signs_of_every_free_variable(self):
        # every arm's own step satisfies the clause, and no other clause is
        # left: level 0 is decided although both free variables occur in it
        f = parse_cnf("p cnf 2 1\n1 -1 2 -2 0\n")
        cfg = SolverConfig(seed=1)
        assert solve(f, ProblemClass.MAXSAT, cfg).stats.per_level == (4, 2)
        assert reference_search(f, ProblemClass.MAXSAT, cfg)[2] == [True, True]


def with_both_signs(f):
    """``f`` with each clause's literals followed by their complements: a
    clause that any value of any of its variables satisfies."""
    clauses = []
    for c in f.clauses:
        complements = tuple(Literal(x.var, not x.negated) for x in c.literals)
        clauses.append(Clause(c.literals + complements, c.weight, c.hard))
    return dataclasses.replace(f, clauses=tuple(clauses))


# the differential cases' (alpha, uct_c, explore_factor) edges and classes,
# as TestDifferentialFuzz describes them
FUZZ_KNOBS = [
    (alpha, c, factor)
    for alpha in (0.0, 1.0, 5e-324, 1.0 - 2**-53)
    for c in (0.0, -1.0, 1e6)
    for factor in (0.01, 3.0)
]
FUZZ_CLASSES = ((False, 0), (True, 0), (False, 2), (True, 2))  # (weighted, hard)


def draw_fuzz_case(rng, weighted, hard, alpha, c, factor, reward, rule):
    """A differential case drawn from ``rng``: a random formula with n = 1-8
    (a quarter of them with both signs of every clause variable) and its
    solver config."""
    n = rng.randint(1, 8)
    m, seed = rng.randint(2, 4 * n), rng.randint(0, 999)
    f = generate_random(n, m, min(3, n), weighted, hard, seed)
    if rng.random() < 0.25:
        f = with_both_signs(f)
    cfg = SolverConfig(factor, alpha, c, reward, rule, seed=rng.randint(0, 999))
    return f, cfg


class TestDifferentialFuzz:
    """``solve`` against ``reference_search``, bit for bit, on random formulas
    of the four classes with n = 1-8 and knobs at their edges: alpha at 0 and
    1 and one float inside each, uct_c zero, negative and large, the budget at
    its floor (explore_factor 0.01, so every level spends 2(n - k) + 1
    episodes, or its expansion when decided) and above it.  A quarter of the
    formulas write every clause with both signs of its variables, the case in
    which a level can be decided while its free variables still occur in a
    clause the prefix leaves unsatisfied."""

    @pytest.mark.parametrize("rule", list(ExploitRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("reward", list(RewardKind), ids=lambda r: r.value)
    def test_solve_matches_reference(self, reward, rule):
        rng = random.Random(f"{reward.value}-{rule.value}")
        for i, knobs in enumerate(FUZZ_KNOBS):
            f, cfg = draw_fuzz_case(rng, *FUZZ_CLASSES[i % 4], *knobs, reward, rule)
            assert_solve_matches_reference(f, classify(f), cfg)
