"""Command-line front end and benchmark harness.

Modes: solve single instances, enumerate distinct optima, cross-check against
the exhaustive oracle, sweep the four reward shapes (ablation), or sweep alpha
over an 11-point grid.  Inputs are DIMACS files or ``gen:`` specs such as
``gen:n=8,m=20,k=3,weighted=1,hard=2,count=5,seed=7``.

Exit codes: 0 success, 1 usage error, 2 parse failures, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .enumeration import enumerate_optima
from .instances import (
    Formula,
    ParseError,
    ProblemClass,
    classify,
    generate_random,
    parse_dimacs,
)
from .mcts import ExploitRule, SolverConfig, derive_seed, solve
from .oracle import brute_force
from .records import CSV_COLUMNS, csv_row, make_record, record_to_json
from .rl import RewardKind

MODES = ("solve", "enumerate", "oracle-check", "ablation", "alpha-grid")
CLASS_TOKENS = ("auto", "maxsat", "wmaxsat", "pms", "wpms")

ENUM_COLUMNS = ("instance", "execution", "distinct_count")
ORACLE_COLUMNS = ("instance", "class", "solver_objective", "oracle_optimum", "match")
ABLATION_COLUMNS = (
    "instance",
    "class",
    "reward",
    "repeats",
    "mean_objective",
    "mean_wall_ms",
)
ALPHA_COLUMNS = (
    "instance",
    "class",
    "alpha",
    "repeats",
    "mean_objective",
    "norm_objective",
    "mean_wall_ms",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _count(text: str) -> int:
    """A count flag's value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mctsat", description=__doc__.split("\n\n")[0])
    p.add_argument("inputs", nargs="+", help="DIMACS files or gen:... specs")
    p.add_argument("--mode", choices=MODES, default="solve")
    p.add_argument(
        "--class",
        dest="problem_class",
        choices=CLASS_TOKENS,
        default="auto",
        help="problem class override (auto = classify from the instance)",
    )
    p.add_argument("--explore-factor", type=float, default=7.0)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--uct-c", type=float, default=1.0)
    p.add_argument(
        "--reward", choices=[k.value for k in RewardKind], default="terminal"
    )
    p.add_argument("--exploit", choices=[r.value for r in ExploitRule], default="mean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--executions",
        type=_count,
        default=50,
        help="runs per instance in enumerate mode",
    )
    p.add_argument(
        "--repeats", type=_count, default=20, help="solves per cell in sweep modes"
    )
    p.add_argument("--oracle-max-vars", type=int, default=20)
    p.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def _parse_gen_spec(spec: str, default_seed: int) -> list[tuple[str, Formula]]:
    fields = {"n": None, "m": None, "k": 3, "weighted": 0, "hard": 0, "count": 1}
    fields["seed"] = default_seed
    for part in spec[len("gen:") :].split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
            if key not in fields:
                raise ValueError(f"unknown generator key {key!r}")
            fields[key] = int(value)
        elif part == "weighted":
            fields["weighted"] = 1
        else:
            raise ValueError(f"unknown generator flag {part!r}")
    if fields["n"] is None or fields["m"] is None:
        raise ValueError("generator spec requires n= and m=")
    out = []
    tag = "w" if fields["weighted"] else "u"
    for i in range(fields["count"]):
        seed = derive_seed(fields["seed"], i)
        formula = generate_random(
            fields["n"],
            fields["m"],
            fields["k"],
            weighted=bool(fields["weighted"]),
            hard_count=fields["hard"],
            seed=seed,
        )
        name = (
            f"gen-n{fields['n']}-m{fields['m']}-k{fields['k']}-{tag}"
            f"-h{fields['hard']}-s{fields['seed']}-{i:03d}"
        )
        out.append((name, formula))
    return out


def _load_inputs(args) -> tuple[list[tuple[str, Formula]], bool]:
    """(instances, any_parse_failure); unreadable/unparsable files are reported
    and skipped."""
    instances: list[tuple[str, Formula]] = []
    failed = False
    for item in args.inputs:
        if item.startswith("gen:"):
            instances.extend(_parse_gen_spec(item, args.seed))
            continue
        path = Path(item)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            sys.stderr.write(f"error: {item}: {exc}\n")
            failed = True
            continue
        try:
            instances.append((path.name, parse_dimacs(text)))
        except ParseError as exc:
            sys.stderr.write(f"error: {item}: {exc}\n")
            failed = True
    return instances, failed


def _resolve_class(formula: Formula, token: str) -> ProblemClass:
    if token != "auto":
        return ProblemClass(token)
    if formula.declared_class is not None:
        return formula.declared_class
    return classify(formula)


def _config(args, seed: int, **overrides) -> SolverConfig:
    cfg = SolverConfig(
        explore_factor=args.explore_factor,
        alpha=args.alpha,
        uct_c=args.uct_c,
        reward=RewardKind(args.reward),
        exploit_rule=ExploitRule(args.exploit),
        seed=seed,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _emit(args, columns, rows_csv, rows_json) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows_csv)
        payload = buf.getvalue()
    else:
        payload = "".join(line + "\n" for line in rows_json)
    if args.out is None:
        sys.stdout.write(payload)
        return
    try:
        args.out.write_text(payload)
    except OSError as exc:
        raise ValueError(f"{args.out}: {exc.strerror or exc}") from None


def _mode_solve(instances, args) -> int:
    rows_csv, rows_json = [], []
    for idx, (name, formula) in enumerate(sorted(instances)):
        cls = _resolve_class(formula, args.problem_class)
        seed = derive_seed(args.seed, idx)
        result = solve(formula, cls, _config(args, seed))
        record = make_record(result, name, cls, seed)
        rows_csv.append(csv_row(record))
        rows_json.append(record_to_json(record))
    _emit(args, CSV_COLUMNS, rows_csv, rows_json)
    return 0


def _mode_enumerate(instances, args) -> int:
    rows_csv, rows_json = [], []
    for idx, (name, formula) in enumerate(sorted(instances)):
        cls = _resolve_class(formula, args.problem_class)
        cfg = _config(args, derive_seed(args.seed, idx))
        report = enumerate_optima(formula, cls, cfg, args.executions)
        for execution, count in report.discovery_curve:
            rows_csv.append([name, str(execution), str(count)])
        rows_json.append(
            json.dumps(
                {
                    "instance": name,
                    "class": cls.value,
                    "best_objective": report.best_objective,
                    "executions": report.executions,
                    "distinct_optima": [list(a) for a in report.distinct_optima],
                    "curve": [list(point) for point in report.discovery_curve],
                }
            )
        )
    _emit(args, ENUM_COLUMNS, rows_csv, rows_json)
    return 0


def _mode_oracle_check(instances, args) -> int:
    rows_csv, rows_json = [], []
    mismatch = False
    for idx, (name, formula) in enumerate(sorted(instances)):
        cls = _resolve_class(formula, args.problem_class)
        try:
            truth = brute_force(formula, cls, args.oracle_max_vars)
        except ValueError as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        result = solve(formula, cls, _config(args, derive_seed(args.seed, idx)))
        match = result.objective == truth.optimum
        mismatch = mismatch or not match
        rows_csv.append(
            [name, cls.value, str(result.objective), str(truth.optimum), str(int(match))]
        )
        rows_json.append(
            json.dumps(
                {
                    "instance": name,
                    "class": cls.value,
                    "solver_objective": result.objective,
                    "oracle_optimum": truth.optimum,
                    "match": match,
                }
            )
        )
    _emit(args, ORACLE_COLUMNS, rows_csv, rows_json)
    return 3 if mismatch else 0


def _mode_ablation(instances, args) -> int:
    rows_csv, rows_json = [], []
    for idx, (name, formula) in enumerate(sorted(instances)):
        cls = _resolve_class(formula, args.problem_class)
        for kind_idx, kind in enumerate(RewardKind):
            objectives, walls = [], []
            for rep in range(args.repeats):
                cfg = _config(
                    args, derive_seed(args.seed, idx, kind_idx, rep), reward=kind
                )
                result = solve(formula, cls, cfg)
                objectives.append(result.objective)
                walls.append(result.stats.wall_ms)
            mean_obj = sum(objectives) / len(objectives)
            mean_wall = sum(walls) / len(walls)
            rows_csv.append(
                [
                    name,
                    cls.value,
                    kind.value,
                    str(args.repeats),
                    f"{mean_obj:.6f}",
                    f"{mean_wall:.3f}",
                ]
            )
            rows_json.append(
                json.dumps(
                    {
                        "instance": name,
                        "class": cls.value,
                        "reward": kind.value,
                        "repeats": args.repeats,
                        "mean_objective": round(mean_obj, 6),
                        "mean_wall_ms": round(mean_wall, 3),
                    }
                )
            )
    _emit(args, ABLATION_COLUMNS, rows_csv, rows_json)
    return 0


def _iqr_normalizer(values):
    """Clamp-to-[0,1] interquartile normalization over a value population."""
    import numpy as np

    q1, q3 = np.percentile(np.asarray(values, dtype=float), [25.0, 75.0])
    if q3 == q1:
        return lambda v: 0.5
    return lambda v: float(min(1.0, max(0.0, (v - q1) / (q3 - q1))))


def _mode_alpha_grid(instances, args) -> int:
    alphas = [i / 10 for i in range(11)]
    rows_csv, rows_json = [], []
    for idx, (name, formula) in enumerate(sorted(instances)):
        cls = _resolve_class(formula, args.problem_class)
        cells = []
        all_objectives = []
        for a_idx, alpha in enumerate(alphas):
            objectives, walls = [], []
            for rep in range(args.repeats):
                cfg = _config(
                    args, derive_seed(args.seed, idx, a_idx, rep), alpha=alpha
                )
                result = solve(formula, cls, cfg)
                objectives.append(result.objective)
                walls.append(result.stats.wall_ms)
            cells.append((alpha, objectives, walls))
            all_objectives.extend(objectives)
        norm = _iqr_normalizer(all_objectives)
        for alpha, objectives, walls in cells:
            mean_obj = sum(objectives) / len(objectives)
            norm_obj = sum(norm(v) for v in objectives) / len(objectives)
            mean_wall = sum(walls) / len(walls)
            rows_csv.append(
                [
                    name,
                    cls.value,
                    f"{alpha:.1f}",
                    str(args.repeats),
                    f"{mean_obj:.6f}",
                    f"{norm_obj:.6f}",
                    f"{mean_wall:.3f}",
                ]
            )
            rows_json.append(
                json.dumps(
                    {
                        "instance": name,
                        "class": cls.value,
                        "alpha": alpha,
                        "repeats": args.repeats,
                        "mean_objective": round(mean_obj, 6),
                        "norm_objective": round(norm_obj, 6),
                        "mean_wall_ms": round(mean_wall, 3),
                    }
                )
            )
    _emit(args, ALPHA_COLUMNS, rows_csv, rows_json)
    return 0


_MODE_RUNNERS = {
    "solve": _mode_solve,
    "enumerate": _mode_enumerate,
    "oracle-check": _mode_oracle_check,
    "ablation": _mode_ablation,
    "alpha-grid": _mode_alpha_grid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        instances, parse_failed = _load_inputs(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if not instances:
        sys.stderr.write("error: no usable instances\n")
        return 2 if parse_failed else 1
    try:
        code = _MODE_RUNNERS[args.mode](instances, args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if code == 0 and parse_failed:
        return 2
    return code


def entry() -> None:  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
