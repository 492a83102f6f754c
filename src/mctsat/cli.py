"""Command-line front end and benchmark harness.

Modes: solve single instances, enumerate distinct optima, cross-check against
the exhaustive oracle, sweep the four reward shapes (ablation), or sweep alpha
over an 11-point grid.  Inputs are DIMACS files or ``gen:`` specs such as
``gen:n=8,m=20,k=3,weighted=1,hard=2,count=5,seed=7``.

Output: ``--format json`` (the default) writes one JSON object per row;
``--format csv`` writes a header, then one line per row with the same
columns in the same order.  solve gives one row per instance, the dict of
``records.make_record`` keyed by ``records.CSV_COLUMNS``; oracle-check one per
instance, ablation one per instance and reward, alpha-grid one per instance
and alpha.  enumerate gives one JSON object per instance, holding its distinct
optima and discovery curve, but one CSV row per curve point.  CSV cells follow
``records.csv_cells``: sequences are space-joined, booleans are 0/1, and the
float columns have fixed decimals: alpha 1, mean_objective and norm_objective
6, wall_ms and mean_wall_ms 3.  JSON numbers are unpadded; the sweep means are
rounded to their CSV decimals, solve's wall_ms is not.

Every mode takes the instances in file-name order, inputs of the same name
in their input order, and the i-th instance's seeds derive from ``--seed``
and i.

Exit codes: 0 success, 1 usage error, 2 parse failures, 3 oracle mismatch.

No mode needs numpy: every mode runs on the standard library alone.  Each
mode imports what only it uses when it runs: enumerate loads the enumerator,
oracle-check the oracle and ``--format csv`` the CSV writer, so a JSON solve
loads none of them.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from .instances import (
    Formula,
    ParseError,
    ProblemClass,
    classify,
    generate_random,
    parse_dimacs,
)
from .mcts import ExploitRule, SolverConfig, derive_seed, solve
from .records import CSV_COLUMNS, csv_cells, make_record
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
    p.add_argument("--oracle-max-vars", type=_count, default=20)
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
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"generator key {key!r} in {spec!r} needs an integer, got {value!r}"
                ) from None
        elif part == "weighted":
            fields["weighted"] = 1
        else:
            raise ValueError(f"unknown generator flag {part!r}")
    if fields["n"] is None or fields["m"] is None:
        raise ValueError("generator spec requires n= and m=")
    ranges = [("count", 1, None), ("n", 1, None), ("m", 1, None), ("k", 1, fields["n"]),
              ("hard", 0, fields["m"]), ("weighted", 0, 1)]
    for key, lo, hi in ranges:
        value = fields[key]
        if value < lo or hi is not None and value > hi:
            span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ValueError(f"generator key {key!r} in {spec!r} must be {span}, got {value}")
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
        try:  # bytes: the parser decodes them, replacing what is not UTF-8
            data = path.read_bytes()
        except OSError as exc:
            sys.stderr.write(f"error: {item}: {exc}\n")
            failed = True
            continue
        try:
            instances.append((path.name, parse_dimacs(data)))
        except ParseError as exc:
            sys.stderr.write(f"error: {item}: {exc}\n")
            failed = True
    return instances, failed


def _resolve_class(formula: Formula, token: str) -> ProblemClass:
    return classify(formula) if token == "auto" else ProblemClass(token)


def _config(args, seed: int, alpha=None, reward=None) -> SolverConfig:
    """The flags' solver config; a sweep's knob value overrides its flag."""
    return SolverConfig(
        explore_factor=args.explore_factor,
        alpha=args.alpha if alpha is None else alpha,
        uct_c=args.uct_c,
        reward=RewardKind(reward or args.reward),
        exploit_rule=ExploitRule(args.exploit),
        seed=seed,
    )


def _emit(args, columns, rows, csv_rows=lambda row: [row]) -> None:
    """Write row dicts as JSON lines, or as CSV under a ``columns`` header;
    ``csv_rows`` maps a row to the CSV rows it stands for."""
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(csv_cells(line) for row in rows for line in csv_rows(row))
        payload = buf.getvalue()
    else:
        payload = "".join(json.dumps(row) + "\n" for row in rows)
    if args.out is None:
        sys.stdout.write(payload)
        return
    try:
        args.out.write_text(payload)
    except OSError as exc:
        raise ValueError(f"{args.out}: {exc.strerror or exc}") from None


def _mode_solve(instances, args) -> int:
    rows = []
    for idx, (name, formula) in enumerate(instances):
        cls = _resolve_class(formula, args.problem_class)
        seed = derive_seed(args.seed, idx)
        result = solve(formula, cls, _config(args, seed))
        rows.append(make_record(result, name, cls, seed))
    _emit(args, CSV_COLUMNS, rows)
    return 0


def _curve_rows(row):
    """enumerate's CSV shape: one row per point of an instance's curve."""
    for point in row["curve"]:
        yield dict(zip(ENUM_COLUMNS, (row["instance"], *point)))


def _mode_enumerate(instances, args) -> int:
    from .enumeration import enumerate_optima

    rows = []
    for idx, (name, formula) in enumerate(instances):
        cls = _resolve_class(formula, args.problem_class)
        cfg = _config(args, derive_seed(args.seed, idx))
        report = enumerate_optima(formula, cls, cfg, args.executions)
        rows.append(
            {
                "instance": name,
                "class": cls.value,
                "best_objective": report.best_objective,
                "executions": report.executions,
                "distinct_optima": report.distinct_optima,
                "curve": report.discovery_curve,
            }
        )
    _emit(args, ENUM_COLUMNS, rows, _curve_rows)
    return 0


def _mode_oracle_check(instances, args) -> int:
    from .oracle import brute_force

    rows = []
    for idx, (name, formula) in enumerate(instances):
        cls = _resolve_class(formula, args.problem_class)
        try:
            truth = brute_force(formula, cls, args.oracle_max_vars)
        except ValueError as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        result = solve(formula, cls, _config(args, derive_seed(args.seed, idx)))
        match = result.objective == truth.optimum
        cells = (name, cls.value, result.objective, truth.optimum, match)
        rows.append(dict(zip(ORACLE_COLUMNS, cells)))
    _emit(args, ORACLE_COLUMNS, rows)
    return 0 if all(row["match"] for row in rows) else 3


def _iqr_normalizer(values):
    """Clamp-to-[0,1] interquartile normalization over a value population."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if q3 == q1:
        return lambda v: 0.5
    return lambda v: min(1.0, max(0.0, (v - q1) / (q3 - q1)))


def _sweep(instances, args, knob, values, columns) -> int:
    """Solve every (instance, knob value) cell ``args.repeats`` times and emit
    one row per cell with its mean objective and wall time.  When ``columns``
    has norm_objective, a row also holds its solves' mean objective normalised
    by the IQR of all the instance's solves."""
    rows = []
    for idx, (name, formula) in enumerate(instances):
        cls = _resolve_class(formula, args.problem_class)
        cells = []
        for v_idx, value in enumerate(values):
            objectives, walls = [], []
            for rep in range(args.repeats):
                seed = derive_seed(args.seed, idx, v_idx, rep)
                result = solve(formula, cls, _config(args, seed, **{knob: value}))
                objectives.append(result.objective)
                walls.append(result.stats.wall_ms)
            cells.append((value, objectives, walls))
        population = [v for _, objectives, _ in cells for v in objectives]
        norm = _iqr_normalizer(population) if "norm_objective" in columns else None
        for value, objectives, walls in cells:
            means = [round(sum(objectives) / args.repeats, 6)]
            if norm is not None:
                means.append(round(sum(map(norm, objectives)) / args.repeats, 6))
            means.append(round(sum(walls) / args.repeats, 3))
            fields = (name, cls.value, value, args.repeats, *means)
            rows.append(dict(zip(columns, fields)))
    _emit(args, columns, rows)
    return 0


def _mode_ablation(instances, args) -> int:
    rewards = [kind.value for kind in RewardKind]
    return _sweep(instances, args, "reward", rewards, ABLATION_COLUMNS)


def _mode_alpha_grid(instances, args) -> int:
    alphas = [i / 10 for i in range(11)]
    return _sweep(instances, args, "alpha", alphas, ALPHA_COLUMNS)


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
    # by name only: a stable sort keeps inputs of the same name in input order
    instances.sort(key=lambda item: item[0])
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
