"""Run the benchmark as alternating parent/change pairs and write BENCH_<pr>.json.

    git archive PARENT_REV | tar -x -C /tmp/parent
    git archive CHANGE_REV | tar -x -C /tmp/change
    python3 scripts/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --seeds $(seq 101 110) --out "BENCH_$PR.json"

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each source tree, on the same seed; even pairs run the
parent first and odd pairs the change.  The workloads are those of the
parent's BENCHMARK.json.  The output holds the machine, the seeds, every
metric of every run, and per workload and metric each side's median and
quartiles and the pairs the change won, lost and tied, judged by the metric's
``better`` direction in the parent's BENCHMARK.json, and ``gain``: whether
the change won at least nine tenths of the pairs (ties count for neither
side) and its median beats the parent's by more than the parent's
quartile spread, q3 - q1; ``spread``, that spread over the parent's median;
and ``separated``: whether every change run beats every parent run.  The
script ends by printing one line per workload with the ``episodes_per_ys``
summary and its gain verdict, then one line per end-to-end metric whose
median is worse on the change or that is unresolved, with its relative
change, its ``bound`` from the parent's BENCHMARK.json and each side's median
``attempted`` operations per run on that workload (a run averages
``hit_rate`` and ``obj_ratio`` over the solves that fit into it, so a faster
side scores more instances), then one line per failed run.  A metric is
unresolved when its ``spread`` is wider than its bound, so that the runs
cannot show whether the change stays within the bound, unless it is
``separated``.  It exits 1 when any run is not ``correct`` or has a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HEADLINE = "episodes_per_ys"


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # statistics.quantiles wants two points before Python 3.13
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq["q3"] - pq["q1"]
        out[name] = {
            "better": direction,
            "parent": pq,
            "change": cq,
            "won": won,
            "lost": lost,
            "tied": len(pairs) - won - lost,
            "gain": 10 * won >= 9 * len(pairs) and sign * (cq["median"] - pq["median"]) > iqr,
            "spread": iqr / abs(pq["median"]) if pq["median"] else math.inf if iqr else 0.0,
            "separated": min(sign * c for c in change) > max(sign * p for p in parent),
        }
    return out


def headline(workload: str, s: dict) -> str:
    """One line: each side's median [q1, q3] of the headline metric, the
    change in the median, the pairs won and lost, and the gain verdict."""
    p, c = s["parent"], s["change"]
    delta = (c["median"] - p["median"]) / p["median"] if p["median"] else math.nan
    return (
        f"{workload}: {HEADLINE} parent {p['median']:.1f} [{p['q1']:.1f}, {p['q3']:.1f}]"
        f" change {c['median']:.1f} [{c['q1']:.1f}, {c['q3']:.1f}] ({delta:+.1%});"
        f" won {s['won']}, lost {s['lost']}, tied {s['tied']};"
        f" gain {'met' if s['gain'] else 'not met'}"
    )


def attempted(pairs: list[dict]) -> dict[str, float]:
    """Each side's median ``attempted`` operations per run."""
    return {
        side: statistics.median(pair[side]["attempted"] for pair in pairs)
        for side in ("parent", "change")
    }


def worse(
    workload: str, summaries: dict, bounds: dict[str, float], ops: dict[str, float]
) -> list[str]:
    """One line per metric of ``bounds`` that is unresolved (see the module
    docstring) or whose change median is worse than the parent's, with
    ``ops``, each side's median operations per run (``attempted``)."""
    lines = []
    for name, bound in bounds.items():
        s = summaries[name]
        p, c = s["parent"]["median"], s["change"]["median"]
        sign = 1 if s["better"] == "higher" else -1
        if p:
            delta = (c - p) / p
        else:
            delta = 0.0 if c == p else math.copysign(math.inf, c - p)
        if s["spread"] > bound and not s["separated"]:
            head = "unresolved"
            verdict = f"parent spread {s['spread']:.1%} of its median, wider than its bound"
        elif sign * (c - p) < 0:
            head = "worse"
            verdict = f"{'beyond' if abs(delta) > bound else 'within'} its bound"
        else:
            continue
        lines.append(
            f"{workload}: {name} {head}, parent {p:.4g} change {c:.4g} ({delta:+.1%});"
            f" {verdict} {bound:.1%};"
            f" attempted per run parent {ops['parent']:g} change {ops['change']:g}"
        )
    return lines


def failures(workload: str, pairs: list[dict]) -> list[str]:
    """One line per run that is not correct or failed an operation."""
    return [
        f"{workload}: seed {pair['seed']} {side} run failed:"
        f" correct {pair[side]['correct']}, failed {pair[side]['failed']}"
        f" of {pair[side]['attempted']}"
        for pair in pairs
        for side in ("parent", "change")
        if not pair[side]["correct"] or pair[side]["failed"] > 0
    ]


def machine() -> dict:
    info = {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    p.add_argument("--change", type=Path, required=True, help="source tree of the change")
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one seed per pair")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S "
        f"--seconds {args.seconds:g} --trace 0",
        "machine": machine(),
        "seeds": args.seeds,
        "order": "even pairs run the parent first, odd pairs the change first",
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i, seed in enumerate(args.seeds):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run(trees[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(workload, seed, {s: pair[s]["metrics"][HEADLINE] for s in sides},
                  file=sys.stderr, flush=True)
        report["workloads"][workload] = {"pairs": pairs, "summary": summary(pairs, better)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    workloads = report["workloads"].items()
    for workload, data in workloads:
        print(headline(workload, data["summary"][HEADLINE]))
    failed = [line for workload, data in workloads for line in failures(workload, data["pairs"])]
    for workload, data in workloads:
        for line in worse(workload, data["summary"], bounds, attempted(data["pairs"])):
            print(line)
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
