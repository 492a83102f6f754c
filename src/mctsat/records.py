"""Solve-result records: one JSON object per solve, plus CSV rows with the
same columns for benchmark sweeps."""

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


def record_to_json(record: SolveRecord) -> str:
    """One JSON object; keys are CSV_COLUMNS, in the order of the fields."""
    return json.dumps(dict(zip(CSV_COLUMNS, astuple(record))))


def write_result(
    result: SolveResult,
    *,
    instance: str,
    problem_class: ProblemClass,
    seed: int,
    executions: int = 1,
) -> str:
    """Serialize a solve result as its JSON record."""
    return record_to_json(make_record(result, instance, problem_class, seed, executions))


def parse_result(text: str) -> SolveRecord:
    """Re-parse a JSON record; inverse of record_to_json."""
    obj = json.loads(text)
    values = (obj[key] for key in CSV_COLUMNS)
    return SolveRecord(*(tuple(v) if isinstance(v, list) else v for v in values))


def csv_row(record: SolveRecord) -> list[str]:
    """Row matching CSV_COLUMNS; assignment and violations space-separated."""
    return [
        record.instance,
        record.problem_class,
        str(record.objective),
        " ".join(str(b) for b in record.assignment),
        str(record.satisfied),
        " ".join(str(j) for j in record.hard_violations),
        str(record.n_explore),
        str(record.executions),
        str(record.seed),
        f"{record.wall_ms:.3f}",
    ]
