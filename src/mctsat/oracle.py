"""Exhaustive ground truth for small instances.

Each assignment is scored through its satisfied clause set, an int with bit j
set when clause j holds.  ``sets[v][b]`` is the set that literal ``v + 1 = b``
satisfies, read straight off the clause literals.  The variables are split in
two halves (Horowitz & Sahni's meet in the middle, 1974): table doubling over
each half gives the 2^h satisfied sets of that half, indexed by its bits, and
the assignment with high index i and low index k satisfies ``hi[i] | lo[k]``.
A set's value is its bit count when every class weight is 1, and otherwise a
sum over one weight table per byte of clauses, which is exact for any int.
Kept independent of the matrix reduction: satisfaction and the class weight
rules are evaluated directly on the clause literals here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import Formula, ProblemClass


@dataclass(frozen=True)
class OracleResult:
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

    if problem_class is ProblemClass.MAXSAT:
        weights = [1] * f.num_clauses
    elif problem_class is ProblemClass.PARTIAL_MAXSAT:
        weights = [c.weight if c.hard else 1 for c in f.clauses]
    else:
        weights = [c.weight for c in f.clauses]

    sets = [[0, 0] for _ in range(n)]
    hard = 0
    for j, clause in enumerate(f.clauses):
        for lit in clause.literals:
            sets[lit.var - 1][not lit.negated] |= 1 << j
        if clause.hard:
            hard |= 1 << j

    h = n // 2
    halves = []
    for part in (sets[:h], sets[h:]):
        table = [0]
        for off, on in part:
            table = [s | off for s in table] + [s | on for s in table]
        halves.append(table)
    lo, hi = halves

    if all(w == 1 for w in weights):
        value = int.bit_count
    else:
        tables = []  # tables[k][byte]: the weight of the clauses 8k.. set in byte
        for k in range(0, len(weights), 8):
            table = [0]
            for w in weights[k : k + 8]:
                table += [t + w for t in table]
            tables.append(table)
        size, at = len(tables), list.__getitem__

        def value(s: int) -> int:
            return sum(map(at, tables, s.to_bytes(size, "little")))

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
