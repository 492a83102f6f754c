"""The summaries of scripts/bench_pairs.py, without running the benchmark."""

import importlib.util
from pathlib import Path

import pytest

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
    assert s["gain"] is True
    assert "(+10.0%); won 1, lost 0, tied 0; gain met" in bench_pairs.headline("w", s)


def test_pairs_are_judged_by_direction():
    pairs = [pair(1, 10.0, 11.0), pair(2, 12.0, 9.0), pair(3, 8.0, 8.0)]
    s = bench_pairs.summary(pairs, {"episodes_per_ys": "lower"})["episodes_per_ys"]
    assert s["parent"] == {"median": 10.0, "q1": 9.0, "q3": 11.0}
    assert (s["won"], s["lost"], s["tied"]) == (1, 1, 1)


@pytest.mark.parametrize(
    "step, losses, gain",
    [
        (10.0, 1, True),  # won 9 of 10, medians 10 apart, parent q3 - q1 = 4.5
        (1.0, 1, False),  # won 9 of 10, but the medians are 1 apart, inside the spread
        (10.0, 2, False),  # medians far apart, but won only 8 of 10
    ],
)
def test_gain_needs_nine_tenths_won_beyond_the_parent_spread(step, losses, gain):
    parents = [100.0 + i for i in range(10)]
    pairs = [pair(i, p, p - 1.0 if i < losses else p + step) for i, p in enumerate(parents)]
    s = bench_pairs.summary(pairs, {"episodes_per_ys": "higher"})["episodes_per_ys"]
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (102.25, 106.75)
    assert s["won"] == 10 - losses
    assert s["gain"] is gain
    assert bench_pairs.headline("w", s).endswith("gain met" if gain else "gain not met")


def test_worse_lines_carry_each_sides_median_operations_per_run():
    # the change fits more solves into a run: obj_ratio moves with the instances scored
    runs = [(0.994, 581, 0.993, 881), (0.995, 600, 0.993, 870), (0.994, 590, 0.992, 900)]
    pairs = [
        {
            "seed": i,
            "parent": {"attempted": pa, "metrics": {"obj_ratio": p, "episodes_per_ys": 10.0}},
            "change": {"attempted": ca, "metrics": {"obj_ratio": c, "episodes_per_ys": 11.0}},
        }
        for i, (p, pa, c, ca) in enumerate(runs)
    ]
    better = {"obj_ratio": "higher", "episodes_per_ys": "higher"}
    ops = bench_pairs.attempted(pairs)
    assert ops == {"parent": 590, "change": 881}
    summaries = bench_pairs.summary(pairs, better)
    lines = bench_pairs.worse("w", summaries, {"obj_ratio": 0.005}, ops)
    assert lines == [
        "w: obj_ratio worse, parent 0.994 change 0.993 (-0.1%); within its bound 0.5%;"
        " attempted per run parent 590 change 881"
    ]


@pytest.mark.parametrize(
    "change, unresolved",
    [
        ((0.09, 0.11, 0.11, 0.13), True),  # same median, the parent's runs too spread to tell
        ((0.05, 0.06, 0.06, 0.07), False),  # every change run below every parent run
    ],
)
def test_metric_is_unresolved_when_the_parent_spread_exceeds_its_bound(change, unresolved):
    parent = (0.08, 0.10, 0.12, 0.14)  # q1 0.095, median 0.11, q3 0.125: spread 27% > 25%
    pairs = [
        {
            "seed": i,
            "parent": {"attempted": 9, "metrics": {"setup_s": p}},
            "change": {"attempted": 9, "metrics": {"setup_s": c}},
        }
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    summaries = bench_pairs.summary(pairs, {"setup_s": "lower"})
    assert summaries["setup_s"]["spread"] == pytest.approx(0.03 / 0.11)
    assert summaries["setup_s"]["separated"] is not unresolved
    lines = bench_pairs.worse("w", summaries, {"setup_s": 0.25}, bench_pairs.attempted(pairs))
    if unresolved:
        [line] = lines
        assert line.startswith("w: setup_s unresolved, parent 0.11 change 0.11 (")
        assert "parent spread 27.3% of its median, wider than its bound 25.0%;" in line
    else:
        assert lines == []
