"""Independent exhaustive optimum for the benchmark's correctness checks.

Kept apart from ``mctsat.oracle`` on purpose: the oracle is one of the layers
the benchmark measures, so its answers are checked against this separate
vectorised enumeration.  Assignments are scored in chunks so the reference
adds little to the run's peak memory.
"""

from __future__ import annotations

import numpy as np

CHUNK_BITS = 15


def class_weights(formula, problem_class) -> list[int]:
    """Objective weight of each clause under the four class rules."""
    token = problem_class.value
    if token == "maxsat":
        return [1] * formula.num_clauses
    if token == "pms":
        return [c.weight if c.hard else 1 for c in formula.clauses]
    return [c.weight for c in formula.clauses]


def exhaustive_optimum(formula, problem_class, max_vars: int = 20) -> int:
    """Largest weighted satisfied sum over all 2^n assignments."""
    n = formula.num_vars
    if not 1 <= n <= max_vars:
        raise ValueError(f"reference enumeration needs 1..{max_vars} variables, got {n}")
    weights = class_weights(formula, problem_class)
    if sum(weights) >= 2**62:
        raise ValueError("clause weights too large for int64 scoring")
    clauses = [
        (weight, [(lit.var - 1, not lit.negated) for lit in clause.literals])
        for weight, clause in zip(weights, formula.clauses)
    ]
    chunk = 1 << min(n, CHUNK_BITS)
    shifts = np.arange(n, dtype=np.int64)
    best = -1
    for start in range(0, 1 << n, chunk):
        index = np.arange(start, start + chunk, dtype=np.int64)
        bits = ((index[:, None] >> shifts) & 1).astype(bool).T  # (n, chunk)
        total = np.zeros(chunk, dtype=np.int64)
        for weight, literals in clauses:
            var, positive = literals[0]
            sat = bits[var] if positive else ~bits[var]
            for var, positive in literals[1:]:
                sat = sat | (bits[var] if positive else ~bits[var])
            total += weight * sat
        best = max(best, int(total.max()))
    return best
