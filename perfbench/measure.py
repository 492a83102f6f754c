"""Timed passes, correctness checks and metrics for one benchmark run.

A run repeats passes (see ``workloads``) until the next pass would overrun
the time box; it always makes at least one pass, or one untraced and one
traced pass when tracing.  Tracing alternates with untraced passes over the
same solves, so ``trace.overhead_frac`` compares passes that did the same
work under the same machine load.  Only the solves (and their records) are
timed: reference optima and the correctness checks run between them.

Each timed operation is followed by a run of the yardstick loop (see
``yardstick``), and each pass starts with one.  An operation's time in
yardsticks is its wall time over the mean of the yardstick runs on either
side of it; the time metrics are reported in these units, and the wall
times they came from go to the report.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mctsat
from mctsat import blp, mcts, oracle, records

import reference
import workloads
import yardstick
from tracer import OP_LAYERS, SETUP_LAYERS, TIME_SCALE, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)
clock = time.perf_counter


@dataclass
class Tally:
    """Timings of the passes made with tracing on, or with it off: wall
    seconds, and the same in yardsticks."""

    pass_s: list[float] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)
    pass_ys: list[float] = field(default_factory=list)
    solve_ys: list[float] = field(default_factory=list)
    yardstick_s: list[float] = field(default_factory=list)
    episodes: int = 0


@dataclass
class Outcome:
    untraced: Tally = field(default_factory=Tally)
    traced: Tally = field(default_factory=Tally)
    optima: dict[int, int] = field(default_factory=dict)
    ratios: list[float] = field(default_factory=list)
    hits: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def mean_gap(self) -> float:
        """Mean of (optimum - objective) / optimum over the solves."""
        return 1.0 - statistics.fmean(self.ratios)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted

    def tally(self, problems: list[str]) -> None:
        """Count one checked operation; any problem marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def fresh_setup_s(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports mctsat and builds the inputs."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), name, str(seed)]
    t0 = clock()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=120)
    elapsed = clock() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-400:]}")
    return elapsed


def oracle_problems(inst, truth, optimum: int) -> list[str]:
    """The oracle must find the reference optimum, and every assignment in its
    optimal set must score it."""
    problems = []
    if truth.optimum != optimum:
        problems.append(f"{inst.name}: oracle optimum {truth.optimum} != reference {optimum}")
    if not truth.optimal_set or any(
        blp.objective(inst.formula, inst.problem_class, y).value != truth.optimum
        for y in truth.optimal_set
    ):
        problems.append(f"{inst.name}: oracle optimal set does not score its optimum")
    return problems


def optimum_of(inst, out: Outcome, tracer: Tracer | None) -> int:
    """The instance's optimum: certified, or from the oracle, which is then
    checked against the independent enumeration as one more operation."""
    if inst.certified_optimum is not None:
        return inst.certified_optimum
    try:
        with tracer or contextlib.nullcontext():
            truth = oracle.brute_force(inst.formula, inst.problem_class)
    except Exception:  # counted as a failed operation
        out.tally([f"{inst.name}: {traceback.format_exc(limit=3)}"])
        return reference.exhaustive_optimum(inst.formula, inst.problem_class)
    optimum = reference.exhaustive_optimum(inst.formula, inst.problem_class)
    out.tally(oracle_problems(inst, truth, optimum))
    return optimum


def solve_problems(inst, result, optimum: int) -> list[str]:
    """A solve must report exactly what blp.objective scores for its
    assignment, and never more than the reference optimum."""
    truth = blp.objective(inst.formula, inst.problem_class, result.assignment)
    problems = []
    reported = (result.objective, result.satisfied_mask, result.hard_violations)
    if reported != (truth.value, truth.satisfied, truth.hard_violations):
        problems.append(f"{inst.name}: solve result disagrees with blp.objective")
    if result.objective > optimum:
        problems.append(f"{inst.name}: objective {result.objective} exceeds optimum {optimum}")
    return problems


def run_pass(wl, pass_no: int, run_seed: int, out: Outcome, tracer, traced: bool) -> None:
    """One pass over a group.  With a tracer, reference oracle calls are
    always traced; the solves only when ``traced``."""
    tally = out.traced if traced else out.untraced
    pass_s = pass_ys = 0.0
    before = yardstick.timed()
    for op_no, op in enumerate(wl.groups[pass_no % len(wl.groups)]):
        inst = wl.instances[op.instance]
        if op.instance not in out.optima:
            out.optima[op.instance] = optimum_of(inst, out, tracer)
        optimum = out.optima[op.instance]
        seed = workloads.solve_seed(run_seed, pass_no, op_no)
        cfg = mcts.SolverConfig(reward=op.reward, seed=seed)
        t0 = clock()
        try:
            with tracer if traced else contextlib.nullcontext():
                result = mcts.solve(inst.formula, inst.problem_class, cfg)
                solve_s = clock() - t0
                if wl.records:
                    records.record_to_json(
                        records.make_record(result, inst.name, inst.problem_class, seed)
                    )
        except Exception:  # a failing solve is counted, and the run goes on
            out.tally([f"{inst.name}: {traceback.format_exc(limit=3)}"])
            continue
        op_s = clock() - t0
        after = yardstick.timed()
        unit_s = (before + after) / 2
        before = after
        pass_s += op_s
        pass_ys += op_s / unit_s
        tally.solve_s.append(solve_s)
        tally.solve_ys.append(solve_s / unit_s)
        tally.yardstick_s.append(after)
        tally.episodes += result.stats.episodes
        out.tally(solve_problems(inst, result, optimum))
        out.hits += result.objective == optimum
        out.ratios.append(result.objective / optimum if optimum else 1.0)
    tally.pass_s.append(pass_s)
    tally.pass_ys.append(pass_ys)


def repeat_problems(wl, run_seed: int) -> list[str]:
    """The first solve of the run, repeated, must give the same assignment."""
    op = wl.groups[0][0]
    inst = wl.instances[op.instance]
    cfg = mcts.SolverConfig(reward=op.reward, seed=workloads.solve_seed(run_seed, 0, 0))
    first = mcts.solve(inst.formula, inst.problem_class, cfg)
    again = mcts.solve(inst.formula, inst.problem_class, cfg)
    if first.assignment != again.assignment:
        return [f"{inst.name}: repeated seed gave a different assignment"]
    return []


def measure(wl, run_seed: int, seconds: float, trace: bool) -> tuple[Outcome, Tracer | None]:
    """Passes until the next would overrun ``seconds``; at least one, or one
    untraced and one traced pass of the same solves when tracing."""
    out = Outcome()
    tracer = Tracer(OP_LAYERS) if trace else None
    deadline = clock() + seconds
    for _ in range(3):  # warm-up
        yardstick.timed()
    longest = 0.0
    pass_no = 0
    while True:
        t0 = clock()
        if trace:  # each slot twice, untraced then traced
            run_pass(wl, pass_no // 2, run_seed, out, tracer, traced=bool(pass_no % 2))
        else:
            run_pass(wl, pass_no, run_seed, out, None, traced=False)
        longest = max(longest, clock() - t0)
        pass_no += 1
        if pass_no >= 1 + trace and clock() + longest > deadline:
            break
    out.tally(repeat_problems(wl, run_seed))
    return out, tracer


def tail(samples: list[float]) -> tuple[int, float]:
    """(p, value) for the highest whole percentile p with at least ten samples
    above it; with ten samples or fewer, the maximum as p=100."""
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


def end_to_end(out: Outcome, setup_samples: list[float]) -> dict[str, float]:
    u = out.untraced
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_ys": statistics.median(u.pass_ys),
        "solve_ys_p50": statistics.median(u.solve_ys),
        "solve_ys_tail": tail(u.solve_ys)[1],
        "episodes_per_ys": u.episodes / sum(u.solve_ys),
        "hit_rate": out.hits / len(out.ratios),
        "obj_ratio": statistics.fmean(out.ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall_times(out: Outcome) -> dict[str, float]:
    """The untraced wall times behind the yardstick metrics, for the report."""
    u = out.untraced
    return {
        "yardstick_ms": statistics.median(u.yardstick_s) * 1e3,
        "wall_s": statistics.median(u.pass_s),
        "solve_ms_p50": statistics.median(u.solve_s) * 1e3,
        "solve_ms_tail": tail(u.solve_s)[1] * 1e3,
        "episodes_per_s": u.episodes / sum(u.solve_s),
    }


def per_layer(out: Outcome, tracer: Tracer, setup: Tracer) -> dict[str, float]:
    """Shares are of the traced time: the time spent in outermost traced
    calls (the solves, their records and the reference oracle calls)."""
    solves = len(out.traced.solve_s)
    metrics = {}
    for layer, _, unit in OP_LAYERS:
        calls, busy, self_s, _ = tracer.stats[layer]
        metrics[f"{layer}.calls_per_solve"] = calls / solves
        metrics[f"{layer}.{unit}_per_call"] = busy / calls * TIME_SCALE[unit] if calls else 0.0
        metrics[f"{layer}.busy_share"] = busy / tracer.outer_s
        metrics[f"{layer}.self_share"] = self_s / tracer.outer_s
    for layer, _, unit in SETUP_LAYERS:
        calls, busy, _, _ = setup.stats[layer]
        metrics[f"{layer}.calls"] = float(calls)
        metrics[f"{layer}.{unit}_per_call"] = busy / calls * TIME_SCALE[unit] if calls else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(out.traced.pass_ys) / statistics.median(out.untraced.pass_ys) - 1
    )
    metrics["mean_gap"] = out.mean_gap
    metrics["failed_frac"] = out.failed_frac
    return metrics


def environment() -> dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mctsat": mctsat.__version__,
        "machine": platform.machine(),
    }
