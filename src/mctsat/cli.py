"""Command-line front end and benchmark harness.

Modes: solve single instances, enumerate distinct optima, cross-check against
the exhaustive oracle, sweep the four reward shapes (ablation), or sweep alpha
over an 11-point grid.  Inputs are DIMACS files or ``gen:`` specs such as
``gen:n=8,m=20,k=3,weighted=1,hard=2,count=5,seed=7``.

Each mode turns one instance into its rows, dicts with the same keys in
every row of the mode; ``main`` runs the one loop over the instances and
writes the rows.  ``--format json`` (the default) writes one JSON object per
row; ``--format csv`` writes the first row's keys as the header, then one
line per row.  solve gives one row per instance, the dict of
``records.make_record`` keyed by ``records.CSV_COLUMNS``; oracle-check one per
instance, ablation one per instance and reward, alpha-grid one per instance
and alpha.  enumerate gives one JSON object per instance, holding its distinct
optima and discovery curve, but one CSV row per curve point.  CSV cells follow
``records.csv_cells``: sequences are space-joined, booleans are 0/1, and the
float columns have the fixed decimals of ``records.CSV_DECIMALS``.  JSON rows
are ``records.record_to_json``'s, with unpadded numbers; the sweep means are
rounded to their CSV decimals, solve's wall_ms is not.

Every mode takes the instances in file-name order, inputs of the same name
in their input order, and the i-th instance's seeds derive from ``--seed``
and i.

Exit codes: 0 success, 1 usage error, 2 parse failures, 3 oracle mismatch.
1 beats the others and writes no rows; 3 beats 2.

No mode needs numpy: every mode runs on the standard library alone.  Each
mode imports what only it uses when it runs: enumerate loads the enumerator,
oracle-check the oracle and ``--format csv`` the CSV writer, so a JSON solve
loads none of them.
"""

from __future__ import annotations

import argparse
import io
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
from .records import CSV_DECIMALS, csv_cells, make_record, record_to_json
from .rl import RewardKind

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
    cfg = SolverConfig()  # the search knobs' defaults
    p = _Parser(prog="mctsat", description=__doc__.split("\n\n")[0])
    p.add_argument("inputs", nargs="+", help="DIMACS files or gen:... specs")
    p.add_argument("--mode", choices=list(_MODE_RUNNERS), default="solve")
    p.add_argument(
        "--class",
        dest="problem_class",
        choices=["auto", *(c.value for c in ProblemClass)],
        default="auto",
        help="problem class override (auto = classify from the instance)",
    )
    p.add_argument("--explore-factor", type=float, default=cfg.explore_factor)
    p.add_argument("--alpha", type=float, default=cfg.alpha)
    p.add_argument("--uct-c", type=float, default=cfg.uct_c)
    p.add_argument("--reward", choices=[k.value for k in RewardKind], default=cfg.reward.value)
    p.add_argument(
        "--exploit", choices=[r.value for r in ExploitRule], default=cfg.exploit_rule.value
    )
    p.add_argument("--seed", type=int, default=cfg.seed)
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


# the literals a gen: spec may ask for in total, count x m x k: refused before
# anything is generated, since a few hundred million already exhaust the memory
GEN_MAX_LITERALS = 2**22


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
    literals = fields["count"] * fields["m"] * fields["k"]
    if literals > GEN_MAX_LITERALS:
        raise ValueError(
            f"generator spec {spec!r} asks for count x m x k = {literals} literals;"
            f" gen: makes at most GEN_MAX_LITERALS = {GEN_MAX_LITERALS}"
        )
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
            instances.append((path.name, parse_dimacs(path.read_bytes())))
        except (OSError, ParseError) as exc:
            sys.stderr.write(f"error: {item}: {exc}\n")
            failed = True
    return instances, failed


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


def _emit(args, rows) -> None:
    """Write row dicts as JSON lines, or as CSV under a header of the first
    row's keys."""
    if args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows(map(csv_cells, rows))
        payload = buf.getvalue()
    else:
        payload = "".join(record_to_json(row) + "\n" for row in rows)
    if args.out is None:
        sys.stdout.write(payload)
        return
    try:  # an input name that is not UTF-8 goes out as its own bytes, as on stdout
        args.out.write_text(payload, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValueError(f"{args.out}: {exc.strerror or exc}") from None


def _mode_solve(name, formula, cls, idx, args) -> list[dict]:
    seed = derive_seed(args.seed, idx)
    return [make_record(solve(formula, cls, _config(args, seed)), name, cls, seed)]


def _mode_enumerate(name, formula, cls, idx, args) -> list[dict]:
    from .enumeration import enumerate_optima

    cfg = _config(args, derive_seed(args.seed, idx))
    report = enumerate_optima(formula, cls, cfg, args.executions)
    if args.format == "csv":  # one row per point of the discovery curve
        return [
            {"instance": name, "execution": i, "distinct_count": count}
            for i, count in report.discovery_curve
        ]
    return [
        {
            "instance": name,
            "class": cls.value,
            "best_objective": report.best_objective,
            "executions": report.executions,
            "distinct_optima": report.distinct_optima,
            "curve": report.discovery_curve,
        }
    ]


def _mode_oracle_check(name, formula, cls, idx, args) -> list[dict]:
    from .oracle import brute_force

    try:
        truth = brute_force(formula, cls, args.oracle_max_vars)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    result = solve(formula, cls, _config(args, derive_seed(args.seed, idx)))
    return [
        {
            "instance": name,
            "class": cls.value,
            "solver_objective": result.objective,
            "oracle_optimum": truth.optimum,
            "match": result.objective == truth.optimum,
        }
    ]


def _iqr_normalizer(values):
    """Clamp-to-[0,1] interquartile normalization over a value population."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if q3 == q1:
        return lambda v: 0.5
    return lambda v: min(1.0, max(0.0, (v - q1) / (q3 - q1)))


def _sweep(name, formula, cls, idx, args, knob, values, normalise=False) -> list[dict]:
    """Solve the instance ``args.repeats`` times at each knob value and give
    one row per value with its mean objective and wall time.  With
    ``normalise``, a row also holds its solves' mean objective normalised by
    the IQR of all the instance's solves."""
    cells = []
    for v_idx, value in enumerate(values):
        objectives, walls = [], []
        for rep in range(args.repeats):
            seed = derive_seed(args.seed, idx, v_idx, rep)
            result = solve(formula, cls, _config(args, seed, **{knob: value}))
            objectives.append(result.objective)
            walls.append(result.stats.wall_ms)
        cells.append((value, objectives, walls))
    if normalise:
        norm = _iqr_normalizer([v for _, objectives, _ in cells for v in objectives])

    def mean(key, samples):  # at its CSV decimals
        return round(sum(samples) / args.repeats, CSV_DECIMALS[key])

    rows = []
    for value, objectives, walls in cells:
        row = {"instance": name, "class": cls.value, knob: value, "repeats": args.repeats}
        row["mean_objective"] = mean("mean_objective", objectives)
        if normalise:
            row["norm_objective"] = mean("norm_objective", map(norm, objectives))
        row["mean_wall_ms"] = mean("mean_wall_ms", walls)
        rows.append(row)
    return rows


def _mode_ablation(name, formula, cls, idx, args) -> list[dict]:
    rewards = [kind.value for kind in RewardKind]
    return _sweep(name, formula, cls, idx, args, "reward", rewards)


def _mode_alpha_grid(name, formula, cls, idx, args) -> list[dict]:
    alphas = [i / 10 for i in range(11)]
    return _sweep(name, formula, cls, idx, args, "alpha", alphas, normalise=True)


_MODE_RUNNERS = {
    "solve": _mode_solve,
    "enumerate": _mode_enumerate,
    "oracle-check": _mode_oracle_check,
    "ablation": _mode_ablation,
    "alpha-grid": _mode_alpha_grid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run_mode = _MODE_RUNNERS[args.mode]
    try:
        instances, parse_failed = _load_inputs(args)
        if not instances:
            sys.stderr.write("error: no usable instances\n")
            return 2 if parse_failed else 1
        # by name only: a stable sort keeps inputs of the same name in input order
        instances.sort(key=lambda item: item[0])
        rows = []
        for idx, (name, formula) in enumerate(instances):
            token = args.problem_class
            cls = classify(formula) if token == "auto" else ProblemClass(token)
            rows += run_mode(name, formula, cls, idx, args)
        _emit(args, rows)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if not all(row.get("match", True) for row in rows):
        return 3
    return 2 if parse_failed else 0


def entry() -> None:  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
