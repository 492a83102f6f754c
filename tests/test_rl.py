"""States, action spaces, rollouts, and the four reward shapes."""

import random
from collections import Counter

import pytest

from mctsat import (
    Action,
    Episode,
    ProblemClass,
    RewardKind,
    action_space,
    apply_action,
    generate_random,
    parse_cnf,
    rollout,
    UNASSIGNED,
)
from mctsat_reference import episode_reward, initial_state, is_terminal


def make_state(text, cls=ProblemClass.MAXSAT):
    return initial_state(parse_cnf(text), cls)


class TestActionSpace:
    def test_initial_size_twice_n(self):
        s, actions = make_state("p cnf 3 1\n1 2 3 0\n")
        assert len(actions) == 6

    def test_single_variable(self):
        s, actions = make_state("p cnf 1 1\n1 0\n")
        assert set(actions) == {Action(1, 0), Action(1, 1)}

    def test_uf20_initial_space(self, uf20_texts):
        s, actions = initial_state(parse_cnf(uf20_texts[0]), ProblemClass.MAXSAT)
        assert len(actions) == 40

    def test_zero_vars_rejected(self):
        from mctsat import Formula

        with pytest.raises(ValueError):
            initial_state(Formula(0, ()), ProblemClass.MAXSAT)

    def test_size_shrinks_by_two_per_assignment(self):
        s, _ = make_state("p cnf 5 1\n1 2 0\n")
        s = apply_action(s, Action(2, 1))
        s = apply_action(s, Action(4, 0))
        assert len(action_space(s)) == 6

    def test_assigned_variable_removed(self):
        s, _ = make_state("p cnf 4 1\n1 2 0\n")
        s = apply_action(s, Action(3, 0))
        space = action_space(s)
        assert Action(3, 0) not in space and Action(3, 1) not in space

    def test_terminal_space_empty(self):
        s, _ = make_state("p cnf 1 1\n1 0\n")
        s = apply_action(s, Action(1, 1))
        assert action_space(s) == []


class TestApplyAction:
    def test_value_semantics(self):
        s, _ = make_state("p cnf 2 1\n1 2 0\n")
        s2 = apply_action(s, Action(1, 1))
        assert s.depth == 0
        assert (s.tableaux.y == UNASSIGNED).all()
        assert s2.depth == 1
        assert s2.tableaux.y[0] == 1 and s2.tableaux.y[1] == UNASSIGNED

    def test_chain_reaches_terminal(self):
        s, _ = make_state("p cnf 3 1\n1 2 3 0\n")
        for var in (1, 2, 3):
            assert not is_terminal(s)
            s = apply_action(s, Action(var, var % 2))
        assert is_terminal(s)

    def test_reassignment_rejected(self):
        s, _ = make_state("p cnf 2 1\n1 2 0\n")
        s = apply_action(s, Action(1, 1))
        with pytest.raises(ValueError):
            apply_action(s, Action(1, 0))

    def test_bad_value_rejected(self):
        s, _ = make_state("p cnf 2 1\n1 2 0\n")
        with pytest.raises(ValueError):
            apply_action(s, Action(1, 2))


class TestRollout:
    def test_single_step_from_n1(self):
        s, _ = make_state("p cnf 1 1\n1 0\n")
        ep = rollout(s, random.Random(0))
        assert len(ep.steps) == 1

    def test_fixed_seed_reproducible(self):
        s, _ = make_state("p cnf 4 2\n1 2 0\n-3 4 0\n")
        a = rollout(s, random.Random(123))
        b = rollout(s, random.Random(123))
        assert [step[1] for step in a.steps] == [step[1] for step in b.steps]
        assert a.terminal_assignment.tolist() == b.terminal_assignment.tolist()

    def test_terminal_state_rejected(self):
        s, _ = make_state("p cnf 1 1\n1 0\n")
        s = apply_action(s, Action(1, 0))
        with pytest.raises(ValueError):
            rollout(s, random.Random(0))

    def test_uniform_terminal_frequencies(self):
        # uniform action draws must reach each of the 2^3 leaves equally often
        s, _ = make_state("p cnf 3 1\n1 2 3 0\n")
        rng = random.Random(2024)
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            ep = rollout(s, rng)
            counts[tuple(ep.terminal_assignment.tolist())] += 1
        assert len(counts) == 8
        for count in counts.values():
            assert abs(count / draws - 1 / 8) < 0.02


class TestEpisodeReward:
    def test_terminal_single_clause(self):
        f = parse_cnf("p cnf 1 1\n1 0\n")
        s, _ = initial_state(f, ProblemClass.MAXSAT)
        ep = Episode(((s, Action(1, 1)),), apply_action(s, Action(1, 1)).tableaux.y)
        assert episode_reward(ep, f, ProblemClass.MAXSAT, RewardKind.TERMINAL) == 1.0

    def test_terminal_complementary_pair(self):
        f = parse_cnf("p cnf 1 2\n1 0\n-1 0\n")
        s, _ = initial_state(f, ProblemClass.MAXSAT)
        for value in (0, 1):
            ep = Episode(
                ((s, Action(1, value)),), apply_action(s, Action(1, value)).tableaux.y
            )
            assert episode_reward(ep, f, ProblemClass.MAXSAT, RewardKind.TERMINAL) == 1.0

    @staticmethod
    def _two_step_episode(f, first=Action(1, 1), second=Action(2, 1)):
        s0, _ = initial_state(f, ProblemClass.MAXSAT)
        s1 = apply_action(s0, first)
        s2 = apply_action(s1, second)
        return Episode(((s0, first), (s1, second)), s2.tableaux.y)

    def test_increment_weighted_hand_value(self):
        # (x1) and (x2), assign x1=1 then x2=1: partial objectives 1 then 2,
        # only the i=1 increment is weighted, by (n-1)/n = 1/2
        f = parse_cnf("p cnf 2 2\n1 0\n2 0\n")
        ep = self._two_step_episode(f)
        reward = episode_reward(ep, f, ProblemClass.MAXSAT, RewardKind.INCREMENT_WEIGHTED)
        assert reward == pytest.approx(0.5)

    def test_prefix_weighted_hand_value(self):
        # same episode: 1 * v_1 + 1/2 * v_2 = 1 + 1 = 2
        f = parse_cnf("p cnf 2 2\n1 0\n2 0\n")
        ep = self._two_step_episode(f)
        reward = episode_reward(ep, f, ProblemClass.MAXSAT, RewardKind.PREFIX_WEIGHTED)
        assert reward == pytest.approx(2.0)

    def test_mixed_is_exact_average_identity(self):
        rng = random.Random(31)
        for _ in range(20):
            f = generate_random(6, 12, 3, weighted=True, seed=rng.randint(0, 999))
            cls = ProblemClass.WEIGHTED_MAXSAT
            s, _ = initial_state(f, cls)
            ep = rollout(s, rng)
            mixed = episode_reward(ep, f, cls, RewardKind.MIXED)
            r2 = episode_reward(ep, f, cls, RewardKind.PREFIX_WEIGHTED)
            terminal = episode_reward(ep, f, cls, RewardKind.TERMINAL)
            assert mixed == 0.5 * r2 + 0.5 * terminal

    def test_terminal_depends_only_on_terminal_assignment(self):
        f = parse_cnf("p cnf 2 2\n1 -2 0\n2 0\n")
        ep_a = self._two_step_episode(f, Action(1, 1), Action(2, 1))
        ep_b = self._two_step_episode(f, Action(2, 1), Action(1, 1))
        assert ep_a.terminal_assignment.tolist() == ep_b.terminal_assignment.tolist()
        assert episode_reward(
            ep_a, f, ProblemClass.MAXSAT, RewardKind.TERMINAL
        ) == episode_reward(ep_b, f, ProblemClass.MAXSAT, RewardKind.TERMINAL)

    def test_terminal_bounded_by_total_weight(self):
        rng = random.Random(8)
        f = generate_random(5, 10, 3, weighted=True, seed=77)
        total = sum(c.weight for c in f.clauses)
        s, _ = initial_state(f, ProblemClass.WEIGHTED_MAXSAT)
        for _ in range(50):
            ep = rollout(s, rng)
            reward = episode_reward(
                ep, f, ProblemClass.WEIGHTED_MAXSAT, RewardKind.TERMINAL
            )
            assert reward <= total
            satisfied_all = all(
                any(
                    ep.terminal_assignment[l.var - 1] == (0 if l.negated else 1)
                    for l in c.literals
                )
                for c in f.clauses
            )
            assert (reward == total) == satisfied_all

    def test_incomplete_episode_rejected(self):
        f = parse_cnf("p cnf 2 1\n1 2 0\n")
        s, _ = initial_state(f, ProblemClass.MAXSAT)
        s1 = apply_action(s, Action(1, 1))
        with pytest.raises(ValueError):
            episode_reward(
                Episode(((s, Action(1, 1)),), s1.tableaux.y),
                f,
                ProblemClass.MAXSAT,
                RewardKind.TERMINAL,
            )

    def test_mid_depth_episode_uses_its_own_span(self):
        # start below the root: the prefix-weighted sum covers only the
        # episode's indices, seeded with the start state's partial objective
        f = parse_cnf("p cnf 2 2\n1 0\n2 0\n")
        s0, _ = initial_state(f, ProblemClass.MAXSAT)
        s1 = apply_action(s0, Action(1, 1))
        ep = Episode(((s1, Action(2, 1)),), apply_action(s1, Action(2, 1)).tableaux.y)
        # i = 1: w = 1, v_1 = 1 (x1 already satisfied); i = 2: w = 1/2, v_2 = 2
        reward = episode_reward(ep, f, ProblemClass.MAXSAT, RewardKind.PREFIX_WEIGHTED)
        assert reward == pytest.approx(1.0 + 0.5 * 2)
