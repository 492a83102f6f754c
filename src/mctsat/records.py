"""Solve-result records: a solve's row is a dict keyed by ``CSV_COLUMNS``,
the one place that knows their order, written as one JSON object or one CSV
line.  Also the CSV cell rule of every CLI row."""

from __future__ import annotations

import json

from .instances import ProblemClass
from .mcts import SolveResult

CSV_COLUMNS = (
    "instance",
    "class",
    "objective",
    "assignment",
    "satisfied",
    "hard_violations",
    "n_explore",
    "executions",
    "seed",
    "wall_ms",
)

# The fixed decimals of each float column in CSV output.
CSV_DECIMALS = {
    "alpha": 1,
    "mean_objective": 6,
    "norm_objective": 6,
    "wall_ms": 3,
    "mean_wall_ms": 3,
}


def make_record(
    result: SolveResult, instance: str, problem_class: ProblemClass, seed: int
) -> dict:
    """A solve's row: a dict keyed by CSV_COLUMNS, in their order."""
    cells = (
        instance,
        problem_class.value,
        result.objective,
        result.assignment,
        sum(result.satisfied_mask),
        result.hard_violations,
        result.stats.n_explore,
        1,  # executions: one solve per record
        seed,
        result.stats.wall_ms,
    )
    return dict(zip(CSV_COLUMNS, cells))


def record_to_json(record: dict) -> str:
    """One JSON object; keys are CSV_COLUMNS, in their order."""
    return json.dumps(record)


def csv_cells(row: dict) -> list[str]:
    """A row dict's CSV cells in key order: sequences space-joined, bools as
    0/1, the CSV_DECIMALS columns with fixed decimals, anything else str()."""
    cells = []
    for key, value in row.items():
        if isinstance(value, (list, tuple)):
            cells.append(" ".join(str(v) for v in value))
        elif isinstance(value, bool):
            cells.append(str(int(value)))
        elif key in CSV_DECIMALS:
            cells.append(f"{value:.{CSV_DECIMALS[key]}f}")
        else:
            cells.append(str(value))
    return cells

