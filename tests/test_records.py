"""JSON/CSV result records and their round-trip re-parser."""

import json
import random

from mctsat import (
    CSV_COLUMNS,
    ProblemClass,
    SolverConfig,
    make_record,
    parse_cnf,
    record_to_json,
    solve,
)
from mctsat.records import csv_cells
from mctsat_reference import parse_result


def random_record(rng):
    n = rng.randint(1, 12)
    cells = (
        f"inst-{rng.randint(0, 999)}",
        rng.choice([c.value for c in ProblemClass]),
        rng.randint(0, 10**6),
        tuple(rng.randint(0, 1) for _ in range(n)),
        rng.randint(0, 60),
        tuple(sorted(rng.sample(range(60), rng.randint(0, 3)))),
        rng.randint(1, 10**4),
        rng.randint(1, 100),
        rng.randint(0, 2**63),
        rng.random() * 1e4,
    )
    return dict(zip(CSV_COLUMNS, cells))


def test_round_trip_100_random_records():
    rng = random.Random(1234)
    for _ in range(100):
        record = random_record(rng)
        assert parse_result(record_to_json(record)) == record


def test_record_to_json_from_solve():
    f = parse_cnf("p cnf 2 1\n1 2 0\n")
    res = solve(f, ProblemClass.MAXSAT, SolverConfig(seed=7))
    text = record_to_json(make_record(res, "tiny", ProblemClass.MAXSAT, 7))
    obj = json.loads(text)
    assert set(obj) == set(CSV_COLUMNS)
    assert obj["objective"] == 1
    assert obj["class"] == "maxsat"
    assert obj["executions"] == 1
    assert parse_result(text) == make_record(res, "tiny", ProblemClass.MAXSAT, 7)


def test_make_record_keys_are_csv_columns_in_order():
    f = parse_cnf("p cnf 2 1\n1 2 0\n")
    res = solve(f, ProblemClass.MAXSAT, SolverConfig(seed=7))
    assert tuple(make_record(res, "tiny", ProblemClass.MAXSAT, 7)) == CSV_COLUMNS


def test_example_row_content():
    record = {
        "instance": "ex",
        "class": "maxsat",
        "objective": 2,
        "assignment": (1, 0),
        "satisfied": 2,
        "hard_violations": (),
        "n_explore": 14,
        "executions": 1,
        "seed": 0,
        "wall_ms": 1.0,
    }
    row = csv_cells(record)
    assert row[CSV_COLUMNS.index("objective")] == "2"
    assert row[CSV_COLUMNS.index("assignment")] == "1 0"


def test_degenerate_zero_record_valid():
    record = {
        "instance": "",
        "class": "maxsat",
        "objective": 0,
        "assignment": (),
        "satisfied": 0,
        "hard_violations": (),
        "n_explore": 0,
        "executions": 0,
        "seed": 0,
        "wall_ms": 0.0,
    }
    assert parse_result(record_to_json(record)) == record
    assert len(csv_cells(record)) == len(CSV_COLUMNS)


def test_csv_cells_rule():
    row = {
        "instance": "x",
        "assignment": (1, 0, 1),
        "hard_violations": [],
        "match": False,
        "seed": 12,
        "alpha": 0.3,
        "mean_objective": 12.0,
        "wall_ms": 0.5,
    }
    assert csv_cells(row) == ["x", "1 0 1", "", "0", "12", "0.3", "12.000000", "0.500"]
