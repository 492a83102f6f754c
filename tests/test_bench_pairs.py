"""The summaries of scripts/bench_pairs.py, without running the benchmark."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pair(seed, parent, change):
    return {
        "seed": seed,
        "parent": {"metrics": {"episodes_per_ys": parent}},
        "change": {"metrics": {"episodes_per_ys": change}},
    }


def test_one_pair_is_summarised():
    s = bench_pairs.summary([pair(1, 10.0, 11.0)], {"episodes_per_ys": "higher"})["episodes_per_ys"]
    assert s["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert s["change"]["median"] == 11.0
    assert (s["won"], s["lost"], s["tied"]) == (1, 0, 0)
    assert "(+10.0%); won 1, lost 0, tied 0" in bench_pairs.headline("w", s)


def test_pairs_are_judged_by_direction():
    pairs = [pair(1, 10.0, 11.0), pair(2, 12.0, 9.0), pair(3, 8.0, 8.0)]
    s = bench_pairs.summary(pairs, {"episodes_per_ys": "lower"})["episodes_per_ys"]
    assert s["parent"] == {"median": 10.0, "q1": 9.0, "q3": 11.0}
    assert (s["won"], s["lost"], s["tied"]) == (1, 1, 1)
