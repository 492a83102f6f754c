"""Solve-result records: one JSON object per solve, plus CSV rows with the
same columns for benchmark sweeps, and the CSV cell rule of every CLI row."""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass

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


@dataclass(frozen=True)
class SolveRecord:
    instance: str
    problem_class: str
    objective: int
    assignment: tuple[int, ...]
    satisfied: int
    hard_violations: tuple[int, ...]
    n_explore: int
    executions: int
    seed: int
    wall_ms: float


def make_record(
    result: SolveResult,
    instance: str,
    problem_class: ProblemClass,
    seed: int,
    executions: int = 1,
) -> SolveRecord:
    return SolveRecord(
        instance=instance,
        problem_class=problem_class.value,
        objective=result.objective,
        assignment=result.assignment,
        satisfied=sum(result.satisfied_mask),
        hard_violations=result.hard_violations,
        n_explore=result.stats.n_explore,
        executions=executions,
        seed=seed,
        wall_ms=result.stats.wall_ms,
    )


def record_row(record: SolveRecord) -> dict:
    """The record as a dict keyed by CSV_COLUMNS, in the order of the fields."""
    return dict(zip(CSV_COLUMNS, astuple(record)))


def record_to_json(record: SolveRecord) -> str:
    """One JSON object; keys are CSV_COLUMNS, in the order of the fields."""
    return json.dumps(record_row(record))


def parse_result(text: str) -> SolveRecord:
    """Re-parse a JSON record; inverse of record_to_json."""
    obj = json.loads(text)
    values = (obj[key] for key in CSV_COLUMNS)
    return SolveRecord(*(tuple(v) if isinstance(v, list) else v for v in values))


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

