#!/usr/bin/env python3
"""Benchmark for mctsat: one workload, one seed, one time box.

    python3 perfbench/run.py --workload uf20-terminal --seed 1 --seconds 50 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` and nowhere else.  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics of BENCHMARK.json when ``--trace 0`` and its per-layer
metrics when ``--trace 1``.  The line before it is a report with the run's
environment, each metric's unit and better direction, and the details
behind the figures.  Exits 2 without a result when the checkout is
incomplete.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uf20-terminal", "shaped-mix")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_checkout():
    """Import mctsat from this checkout's src; None if the checkout lacks it."""
    src = ROOT / "src"
    if not (src / "mctsat" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(src), str(HERE)]
    import mctsat

    if not Path(mctsat.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return mctsat


def main(argv=None) -> int:
    args = parse_args(argv)
    if load_checkout() is None:
        print(f"error: no mctsat package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import measure
    import workloads
    from tracer import SETUP_LAYERS, Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            with Tracer(SETUP_LAYERS) as setup:
                wl = workloads.build(args.workload, args.seed)
        else:
            setup_samples = [
                measure.fresh_setup_s(args.workload, args.seed)
                for _ in range(measure.SETUP_REPEATS)
            ]
            wl = workloads.build(args.workload, args.seed)
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out, tracer = measure.measure(wl, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values = measure.per_layer(out, tracer, setup)
        declared = spec["per_layer"]
    else:
        values = measure.end_to_end(out, setup_samples)
        declared = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        print("error: computed metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **measure.environment(),
        "passes": len(out.untraced.pass_s) + len(out.traced.pass_s),
        "pass_s": {"untraced": out.untraced.pass_s, "traced": out.traced.pass_s},
        "pass_ys": {"untraced": out.untraced.pass_ys, "traced": out.traced.pass_ys},
        "wall_times": measure.wall_times(out),
        "solve_tail_percentile": measure.tail(out.untraced.solve_ys)[0],
        "solve_tail_samples": len(out.untraced.solve_ys),
        "mean_gap": out.mean_gap,
        "failed_frac": out.failed_frac,
        "absent_layers": tracer.absent if tracer else [],
        "problems": out.problems[:20],
        "metrics": {m["name"]: {**metrics[m["name"]], "better": m["better"]} for m in declared},
    }
    print(json.dumps({"report": report}))
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
