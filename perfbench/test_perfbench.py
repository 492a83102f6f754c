"""Tests of the benchmark harness: tiny runs of each workload, the
correctness accounting, the yardstick units, the tail rule, tracing and the
reference optimum."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import measure  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from mctsat import ProblemClass, brute_force, generate_random, mcts, oracle  # noqa: E402
from tracer import SETUP_LAYERS, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, seed=5):
    """The workload cut down to a single solve."""
    wl = workloads.build(name, seed)
    return dataclasses.replace(wl, groups=(wl.groups[0][:1],))


def assert_declared(values, declared):
    assert sorted(values) == sorted(m["name"] for m in declared)
    for m in declared:
        assert m["unit"]
        assert math.isfinite(values[m["name"]]), m["name"]


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_tiny_run_emits_every_metric(name):
    wl = tiny(name)
    out, _ = measure.measure(wl, 5, 0, trace=False)
    assert out.failed == 0 and out.attempted > 0
    setup = [measure.fresh_setup_s(name, 5)]
    assert_declared(measure.end_to_end(out, setup), SPEC["end_to_end"])

    with Tracer(SETUP_LAYERS) as setup_tracer:
        workloads.build(name, 5)
    out, tracer = measure.measure(wl, 5, 0, trace=True)
    assert out.failed == 0 and tracer.absent == []
    assert_declared(measure.per_layer(out, tracer, setup_tracer), SPEC["per_layer"])


def test_uf20_layers_account_for_solve_time():
    out, tracer = measure.measure(tiny("uf20-terminal"), 5, 0, trace=True)
    values = measure.per_layer(out, tracer, Tracer(SETUP_LAYERS))
    self_total = sum(v for k, v in values.items() if k.endswith(".self_share"))
    assert values["mcts.solve.busy_share"] == pytest.approx(1.0)
    assert self_total == pytest.approx(1.0)
    assert values["rl.rollout.calls_per_solve"] == 0
    assert values["oracle.brute_force.calls_per_solve"] == 0


def test_corrupted_solve_result_counts_as_failed(monkeypatch):
    real = mcts.solve

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, objective=result.objective - 1)

    monkeypatch.setattr(mcts, "solve", corrupted)
    out, _ = measure.measure(tiny("shaped-mix"), 5, 0, trace=False)
    assert out.failed == len(out.untraced.solve_s) == 1
    assert any("blp.objective" in p for p in out.problems)


def test_corrupted_oracle_result_counts_as_failed(monkeypatch):
    real = oracle.brute_force

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, optimum=result.optimum + 1)

    monkeypatch.setattr(oracle, "brute_force", corrupted)
    out, _ = measure.measure(tiny("shaped-mix"), 5, 0, trace=False)
    assert out.failed == 1
    assert len(out.problems) == 2


def test_times_are_in_yardsticks(monkeypatch):
    monkeypatch.setattr(yardstick, "timed", lambda: 0.01)
    out, _ = measure.measure(tiny("uf20-terminal"), 5, 0, trace=False)
    u = out.untraced
    assert u.solve_ys == [pytest.approx(s / 0.01) for s in u.solve_s]
    assert u.pass_ys == [pytest.approx(s / 0.01) for s in u.pass_s]


def test_tail_keeps_ten_samples_above():
    samples = [float(i) for i in range(100)]
    assert measure.tail(samples) == (90, 89.0)
    assert measure.tail(samples[:11]) == (9, 0.0)
    assert measure.tail(samples[:10]) == (100, 9.0)


def test_absent_entry_point_is_reported_not_fatal():
    layers = (("mcts.gone", [("mctsat.mcts", "no_such_function")], "us"),)
    tracer = Tracer(layers)
    with tracer:
        pass
    assert tracer.absent == ["mcts.gone"]
    assert tracer.stats["mcts.gone"][0] == 0


@pytest.mark.parametrize("cls_idx", range(4))
def test_reference_matches_oracle(cls_idx):
    weighted = cls_idx in (1, 3)
    hard = 2 if cls_idx >= 2 else 0
    f = generate_random(9, 30, 3, weighted=weighted, hard_count=hard, seed=40 + cls_idx)
    cls = list(ProblemClass)[cls_idx]
    assert reference.exhaustive_optimum(f, cls) == brute_force(f, cls).optimum


def test_inputs_follow_the_seed():
    a, b, c = (workloads.build("shaped-mix", s) for s in (3, 3, 4))
    assert a == b
    assert a.instances != c.instances


def test_incomplete_checkout_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "uf20-terminal", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
