"""Reduction of a classified formula to a 0/1 linear objective.

Clause j turns into the row constraint ``a_y[j] @ y + b[j] >= 1`` over the
binary assignment vector y, where a_y[j][i] is the net count of positive minus
negated occurrences of variable i in clause j and b[j] counts the negated
literals.  The objective is the w-weighted sum of satisfied rows; w holds
the weights as exact Python ints (an object array), so the sum is exact for
any weight, with no int64 limit.

numpy (the ``matrix`` extra) is imported only inside the functions that build
or read this matrix view: ``to_blp`` and ``satisfied_mask``.
The search and the oracle score on the clause-set format built here, without
it: a clause set is an int with bit j for clause j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .instances import Formula, ProblemClass, check_hard_weight_rule

if TYPE_CHECKING:
    import numpy as np

UNASSIGNED = -1


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BlpProblem:
    """Objective weights, coefficient matrix and negation counts of one instance."""

    w: np.ndarray  # (m,) object: exact Python ints, no int64 limit
    a_y: np.ndarray  # (m, n) int64
    b: np.ndarray  # (m,) int64

    @property
    def num_clauses(self) -> int:
        return self.a_y.shape[0]

    @property
    def num_vars(self) -> int:
        return self.a_y.shape[1]


@dataclass(frozen=True)
class SatTableaux:
    """Search-state layout: weights, coefficients, and the partial assignment y.

    The redundant b and per-clause satisfaction indicators are dropped; both
    are recomputable from the originating formula.  Entries of y are 0, 1 or
    UNASSIGNED.
    """

    w: np.ndarray
    a_y: np.ndarray
    y: np.ndarray  # (n,) int8

    @property
    def num_vars(self) -> int:
        return self.a_y.shape[1]


def objective_weights(f: Formula, problem_class: ProblemClass) -> list[int]:
    """Per-clause objective weights under the unified weighting rules.

    Plain MaxSAT counts every clause once; the weighted flavor keeps the input
    weights; the partial flavor keeps hard weights but flattens soft ones to 1;
    the weighted-partial flavor keeps everything.
    """
    if problem_class is ProblemClass.MAXSAT:
        return [1] * f.num_clauses
    if problem_class is ProblemClass.WEIGHTED_MAXSAT:
        return [c.weight for c in f.clauses]
    if problem_class is ProblemClass.PARTIAL_MAXSAT:
        return [c.weight if c.hard else 1 for c in f.clauses]
    return [c.weight for c in f.clauses]


def checked_weights(f: Formula, problem_class: ProblemClass) -> list[int]:
    """``objective_weights``, after rejecting partial instances whose hard
    weights do not dominate the total soft weight."""
    partial = (ProblemClass.PARTIAL_MAXSAT, ProblemClass.WEIGHTED_PARTIAL_MAXSAT)
    if problem_class in partial and not check_hard_weight_rule(f):
        raise ValueError("hard clause weights must each exceed the total soft weight")
    return objective_weights(f, problem_class)


def literal_sets(f: Formula) -> list[list[int]]:
    """``sets[v][b]``: the set of clauses that literal ``v + 1 = b`` satisfies.

    Built in time linear in the literals and the sets' spans, where ORing in
    one bit per occurrence would be quadratic in m: first each literal's
    clause indices, then one base-2 digit string over the literal's span."""
    sets = [[[], []] for _ in range(f.num_vars)]
    for j, clause in enumerate(f.clauses):
        for lit in clause.literals:
            sets[lit.var - 1][not lit.negated].append(j)
    for pair in sets:
        for b in 0, 1:
            js = pair[b]
            if not js:
                pair[b] = 0
                continue
            lo, hi = js[0], js[-1]
            digits = bytearray(b"0") * (hi - lo + 1)  # most significant first
            for j in js:
                digits[hi - j] = 49  # b"1"
            pair[b] = int(digits, 2) << lo
    return sets


def union_table(sets: list[list[int]]) -> list[int]:
    """Entry i: the union of ``sets[t][i >> t & 1]``, the satisfied set of
    assignment i to a slice of ``literal_sets``; built by doubling."""
    table = [0]
    for off, on in sets:
        table = [s | off for s in table] + [s | on for s in table]
    return table


def weight_sum(weights: list[int]):
    """A function from a clause set to the exact sum of its clauses' weights:
    ``int.bit_count`` when every weight is 1, otherwise a sum over one
    256-entry table per byte of clauses, exact for any int weight."""
    if all(w == 1 for w in weights):
        return int.bit_count
    tables = []  # tables[k][byte]: the weight of the clauses 8k.. set in byte
    for k in range(0, len(weights), 8):
        table = [0]
        for w in weights[k : k + 8]:
            table += [t + w for t in table]
        tables.append(table)
    size, at = len(tables), list.__getitem__

    def wsum(s: int) -> int:
        return sum(map(at, tables, s.to_bytes(size, "little")))

    return wsum


def to_blp(f: Formula, problem_class: ProblemClass) -> BlpProblem:
    """Build the (w, a_y, b) reduction; raises like ``checked_weights``.  w
    holds the weights as exact Python ints, with no int64 limit."""
    import numpy as np

    m, n = f.num_clauses, f.num_vars
    w = np.array(checked_weights(f, problem_class), dtype=object)
    a_y = np.zeros((m, n), dtype=np.int64)
    b = np.zeros(m, dtype=np.int64)
    for j, clause in enumerate(f.clauses):
        for lit in clause.literals:
            if lit.negated:
                a_y[j, lit.var - 1] -= 1
                b[j] += 1
            else:
                a_y[j, lit.var - 1] += 1
    return BlpProblem(_frozen(w), _frozen(a_y), _frozen(b))


def satisfied_mask(p: BlpProblem, y: np.ndarray) -> np.ndarray:
    """Boolean per-clause satisfaction of a full assignment via the row test."""
    return (p.a_y @ y + p.b) >= 1


@dataclass(frozen=True)
class ObjectiveResult:
    """``objective``'s score of a complete assignment.  ``value`` is the sum of
    the class's ``objective_weights`` over the satisfied clauses,
    ``satisfied`` each clause's satisfaction in clause order, and
    ``hard_violations`` the indices of the unsatisfied hard clauses,
    ascending."""

    value: int
    satisfied: tuple[bool, ...]
    hard_violations: tuple[int, ...]


def objective(f: Formula, problem_class: ProblemClass, y) -> ObjectiveResult:
    """Weighted satisfied sum of a complete assignment, with the per-clause
    satisfaction mask and the indices of violated hard clauses.  Each clause
    is evaluated on its literals, so the sum is exact for any weight."""
    try:  # a 1-D sequence of n scalars (an array item has ndim > 0), each 0 or 1
        bits = [v == 1 if not getattr(v, "ndim", 0) and v in (0, 1) else None for v in y]
    except TypeError:  # not a sequence
        bits = [None]
    if getattr(y, "ndim", 1) != 1 or len(bits) != f.num_vars or None in bits:
        raise ValueError("assignment must be a complete 0/1 vector of length n")
    weights = checked_weights(f, problem_class)
    sat = []  # a plain loop: any() over a generator per clause takes 4x as long
    for c in f.clauses:
        for lit in c.literals:
            if bits[lit.var - 1] != lit.negated:
                sat.append(True)
                break
        else:
            sat.append(False)
    value = sum(w for w, s in zip(weights, sat) if s)
    hard_violations = tuple(j for j, c in enumerate(f.clauses) if c.hard and not sat[j])
    return ObjectiveResult(value, tuple(sat), hard_violations)
