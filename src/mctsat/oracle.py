"""Exhaustive ground truth for small instances.

Each assignment is scored through its satisfied clause set, in the clause-set
format of ``mctsat.blp`` that the search scores on too.  The variables are
split in two halves (Horowitz & Sahni's meet in the middle, 1974):
``union_table`` gives the 2^h satisfied sets of each half, indexed by its
bits, and the assignment with high index i and low index k satisfies
``hi[i] | lo[k]``, whose value is its ``weight_sum`` under the class weights
of ``blp.objective_weights``; unlike the search, the oracle does not require
hard weights to dominate.  Independent checks: ``naive_sweep`` in
tests/test_oracle.py scores every assignment through ``blp.objective``, which
walks the clause literals; perfbench/reference.py runs its own vectorised
enumeration with its own ``class_weights``; and ``TestWeightRules`` in
tests/test_blp.py pins the rules themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blp import literal_sets, objective_weights, union_table, weight_sum
from .instances import Formula, ProblemClass


@dataclass(frozen=True)
class OracleResult:
    """``brute_force``'s ground truth.  ``optimum`` is the best objective over
    all 2^n assignments.  ``optimal_set`` holds every assignment that reaches
    it, each a 0/1 tuple in variable order, sorted.  ``hard_feasible`` tells
    whether some assignment satisfies every hard clause."""

    optimum: int
    optimal_set: tuple[tuple[int, ...], ...]
    hard_feasible: bool


def brute_force(
    f: Formula, problem_class: ProblemClass, max_vars: int = 20
) -> OracleResult:
    """Exact optimum and the complete set of optimal assignments."""
    n = f.num_vars
    if n < 1:
        raise ValueError("formula has no variables")
    if n > max_vars:
        raise ValueError(f"{n} variables exceed the enumeration guard {max_vars}")

    sets = literal_sets(f)
    hard = sum(1 << j for j, clause in enumerate(f.clauses) if clause.hard)
    h = n // 2
    lo, hi = union_table(sets[:h]), union_table(sets[h:])
    value = weight_sum(objective_weights(f, problem_class))

    best, best_masks, hard_feasible = -1, [], False
    for i, hs in enumerate(hi):
        row = [value(hs | ls) for ls in lo]
        top = max(row)
        if top >= best:
            if top > best:
                best, best_masks = top, []
            best_masks += [i << h | k for k, v in enumerate(row) if v == top]
        if not hard_feasible:
            hard_feasible = any((hs | ls) & hard == hard for ls in lo)

    optimal_set = tuple(
        sorted(tuple((mask >> v) & 1 for v in range(n)) for mask in best_masks)
    )
    return OracleResult(best, optimal_set, hard_feasible)
