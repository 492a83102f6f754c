"""CLI modes, schemas, exit codes, and byte-level determinism."""

import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mctsat
import mctsat_reference
from mctsat.cli import _config, build_parser, main

TIME_COLUMNS = {"wall_ms", "mean_wall_ms"}
UF20_01 = Path(__file__).parent / "data" / "uf20" / "uf20-01.cnf"
PINNED_STDOUT = Path(__file__).parent / "data" / "cli_stdout.json"


def run_cli(args):
    return main(args)


def run_python(args):
    """A fresh interpreter with the package under test first on its path."""
    src = str(Path(mctsat.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def run_capped_cli(target):
    """``mctsat.cli`` as ``__main__`` on one input, in a child that caps its
    own address space at 1 GB: a runaway allocation ends in a MemoryError
    there, not in a full host."""
    child = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.argv = ['mctsat', {target!r}]\n"
        "runpy.run_module('mctsat.cli', run_name='__main__')\n"
    )
    return run_python(["-c", child])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def stable_csv_body(path):
    """CSV rows with time columns blanked, for determinism comparisons."""
    rows = read_csv(path)
    header = rows[0]
    drop = [i for i, name in enumerate(header) if name in TIME_COLUMNS]
    out = []
    for row in rows:
        out.append([v for i, v in enumerate(row) if i not in drop])
    return out


def stable_json_body(path):
    out = []
    for line in open(path):
        obj = json.loads(line)
        for key in TIME_COLUMNS:
            obj.pop(key, None)
        out.append(obj)
    return out


class TestSolveMode:
    def test_single_clause_json(self, tmp_path, capsys):
        cnf = tmp_path / "one.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        assert run_cli([str(cnf)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["objective"] == 1
        assert record["class"] == "maxsat"
        assert record["assignment"] == [1]

    def test_csv_output_schema(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = run_cli(
            ["gen:n=4,m=8,count=3", "--format", "csv", "--out", str(out), "--seed", "5"]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == [
            "instance",
            "class",
            "objective",
            "assignment",
            "satisfied",
            "hard_violations",
            "n_explore",
            "executions",
            "seed",
            "wall_ms",
        ]
        assert len(rows) == 4

    def test_class_override(self, tmp_path, capsys):
        cnf = tmp_path / "w.wcnf"
        cnf.write_text("p wcnf 1 1\n5 1 0\n")
        assert run_cli([str(cnf), "--class", "maxsat"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["class"] == "maxsat"
        assert record["objective"] == 1

    @pytest.mark.parametrize("token", ["maxsat", "wmaxsat", "pms", "wpms"])
    def test_every_class_token_solves(self, capsys, token):
        assert run_cli(["gen:n=5,m=12,weighted,hard=2,seed=4", "--class", token]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == token

    def test_knob_defaults_are_solver_configs(self):
        assert _config(build_parser().parse_args(["x.cnf"]), 7) == mctsat.SolverConfig(seed=7)


class TestExitCodes:
    def test_usage_error_is_1(self):
        for flag, value in [("--mode", "nonsense"), ("--class", "sat")]:
            with pytest.raises(SystemExit) as err:
                run_cli(["gen:n=2,m=2", flag, value])
            assert err.value.code == 1

    def test_bad_generator_spec_is_1(self, capsys):
        assert run_cli(["gen:n=2"]) == 1
        assert run_cli(["gen:n=2,m=2,bogus=1"]) == 1
        # a bad value names its key and the spec
        assert run_cli(["gen:n=abc,m=2"]) == 1
        assert "key 'n' in 'gen:n=abc,m=2'" in capsys.readouterr().err
        assert run_cli(["gen:n=4,m=8,count=0"]) == 1
        err = capsys.readouterr().err
        assert "key 'count' in 'gen:n=4,m=8,count=0' must be >= 1" in err
        for spec, message in [
            ("gen:n=4,m=8,hard=-1", "key 'hard' in 'gen:n=4,m=8,hard=-1' must be in [0, 8], got -1"),
            ("gen:n=2,m=2,k=5", "key 'k' in 'gen:n=2,m=2,k=5' must be in [1, 2], got 5"),
            ("gen:n=4,m=8,weighted=2", "key 'weighted' in 'gen:n=4,m=8,weighted=2' must be in [0, 1]"),
        ]:
            assert run_cli([spec]) == 1
            assert message in capsys.readouterr().err

    def test_parse_failure_is_2_and_run_continues(self, tmp_path, capsys):
        good = tmp_path / "good.cnf"
        good.write_text("p cnf 1 1\n1 0\n")
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n2 0\n")
        code = run_cli([str(good), str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "bad.cnf" in captured.err
        assert json.loads(captured.out)["objective"] == 1

    def test_headerless_wcnf_is_solved_and_stray_h_is_2(self, tmp_path, capsys):
        good = tmp_path / "new.wcnf"
        good.write_text("h 1 2 0\n3 -1 0\n")
        bad = tmp_path / "stray.wcnf"
        bad.write_text("h 1 2 0\n3 h -1 0\n")
        code = run_cli([str(good), str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "stray.wcnf" in captured.err and "line 2: invalid literal 'h'" in captured.err
        row = json.loads(captured.out)
        assert (row["class"], row["objective"], row["hard_violations"]) == ("wpms", 7, [])

    @pytest.mark.parametrize("header", ["p cnf 0 0", "p wcnf 0 0"])
    def test_zero_variables_is_2_and_run_continues(self, tmp_path, capsys, header):
        empty = tmp_path / "empty.cnf"
        empty.write_text(header + "\n")
        code = run_cli([str(UF20_01), str(empty)])
        captured = capsys.readouterr()
        assert code == 2
        assert "empty.cnf" in captured.err and "header declares no variables" in captured.err
        assert json.loads(captured.out)["instance"] == "uf20-01.cnf"

    @pytest.mark.parametrize("source", ["file", "gen"])
    def test_huge_header_is_1_without_traceback(self, tmp_path, source):
        # 2^64 variables over clauses on variables 1-4: solve refuses the count
        # before it builds any n-sized table.  The child caps its own address
        # space, so a regression ends in a MemoryError, not in a full host
        pytest.importorskip("resource")
        n = 2**64
        if source == "file":
            target = tmp_path / "huge.cnf"
            target.write_text(f"p cnf {n} 3\n1 2 0\n-2 3 0\n3 -4 0\n")
        else:
            target = f"gen:n={n},m=3"
        proc = run_capped_cli(str(target))
        assert proc.returncode == 1
        assert f"formula has {n} variables; solve takes at most MAX_VARS = 65536" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "spec, literals",
        [
            ("gen:n=3,m=100000000000", 3 * 10**11),
            ("gen:n=3,m=3,count=100000000000", 9 * 10**11),
            ("gen:n=100000000,m=1,k=100000000", 10**8),
        ],
        ids=["m", "count", "k"],
    )
    def test_huge_gen_spec_is_1_without_traceback(self, spec, literals):
        # refused before anything is generated; the capped child keeps a
        # regression from filling the host
        pytest.importorskip("resource")
        proc = run_capped_cli(spec)
        assert proc.returncode == 1
        message = f"asks for count x m x k = {literals} literals; gen: makes at most"
        assert f"{message} GEN_MAX_LITERALS = {2**22}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_is_2(self, capsys):
        assert run_cli(["does-not-exist.cnf"]) == 2

    def test_inputs_with_one_file_name_are_solved_in_input_order(self, tmp_path, capsys):
        twin = tmp_path / "uf20-02.cnf"
        twin.write_text(UF20_01.read_text())
        fixture = UF20_01.with_name("uf20-02.cnf")
        assert run_cli([str(fixture), str(twin)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["instance"] for row in rows] == ["uf20-02.cnf"] * 2
        # the fixture comes first, so it gets the seed it gets on its own
        assert run_cli([str(fixture)]) == 0
        alone = json.loads(capsys.readouterr().out)
        assert rows[0]["assignment"] == alone["assignment"]

    @pytest.mark.parametrize(
        "mode, rows_per_instance",
        [("enumerate", 1), ("oracle-check", 1), ("ablation", 4), ("alpha-grid", 11)],
    )
    def test_every_mode_takes_inputs_with_one_file_name(
        self, tmp_path, capsys, mode, rows_per_instance
    ):
        paths = []
        for folder, text in (("a", "p cnf 2 2\n1 0\n-2 0\n"), ("b", "p cnf 1 1\n1 0\n")):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "same.cnf")
            paths[-1].write_text(text)
        args = ["--mode", mode, "--executions", "2", "--repeats", "1", *map(str, paths)]
        assert run_cli(args) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 2 * rows_per_instance
        assert {row["instance"] for row in rows} == {"same.cnf"}

    def test_latin1_comment_and_byte_order_mark_are_solved(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.cnf"
        latin1.write_bytes(b"c caf\xe9\np cnf 1 1\n1 0\n")
        bom = tmp_path / "bom.cnf"
        bom.write_bytes(b"\xef\xbb\xbfp cnf 1 1\n1 0\n")
        assert run_cli([str(latin1), str(bom)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(row["instance"], row["objective"]) for row in rows] == [
            ("bom.cnf", 1), ("latin1.cnf", 1)
        ]

    def test_non_utf8_byte_in_a_clause_is_2_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"p cnf 2 1\n1 -2\xe9 0\n")
        assert run_cli([str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.cnf" in err and "line 2: invalid literal" in err

    def test_undecodable_file_is_2_and_run_continues(self, tmp_path, capsys):
        good = tmp_path / "ok.cnf"
        good.write_text("p cnf 1 1\n1 0\n")
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"\xffp cnf 1 1\n1 0\n")
        code = run_cli([str(good), str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "bad.cnf" in captured.err
        assert json.loads(captured.out)["objective"] == 1

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("ablation", "--repeats", "0"),
            ("ablation", "--repeats", "-2"),
            ("alpha-grid", "--repeats", "0"),
            ("enumerate", "--executions", "0"),
            ("oracle-check", "--oracle-max-vars", "0"),
            ("oracle-check", "--oracle-max-vars", "-1"),
        ],
    )
    def test_count_below_one_is_1(self, mode, flag, value):
        proc = run_python(
            ["-m", "mctsat.cli", "gen:n=4,m=8", "--mode", mode, f"{flag}={value}"]
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert flag in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_out_is_1(self, tmp_path, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        proc = run_python(["-m", "mctsat.cli", "gen:n=4,m=8", "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {out}: ")

    def test_oracle_mismatch_is_3(self, tmp_path):
        # a starved budget misses the optimum on about a quarter of these
        # weighted instances; it hits on all thirty with probability < 1e-4
        out = tmp_path / "oc.csv"
        code = run_cli(
            [
                "gen:n=10,m=30,weighted,count=30,seed=6",
                "--mode",
                "oracle-check",
                "--explore-factor",
                "0.01",
                "--seed",
                "5",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        rows = read_csv(out)
        assert rows[0] == ["instance", "class", "solver_objective", "oracle_optimum", "match"]
        assert any(row[-1] == "0" for row in rows[1:])

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--explore-factor", "inf", "explore_factor"),
            ("--uct-c", "nan", "uct_c"),
            ("--uct-c", "inf", "uct_c"),
        ],
    )
    def test_non_finite_search_knob_is_1(self, flag, value, field):
        proc = run_python(["-m", "mctsat.cli", str(UF20_01), f"{flag}={value}"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert field in proc.stderr

    @pytest.mark.parametrize(
        "knobs, field",
        [
            (["--uct-c", "1e308", "--alpha", "0"], "uct_c"),
            (["--uct-c", "1e308", "--alpha", "1"], "uct_c"),
            (["--uct-c", "1e308"], "uct_c"),
            (["--explore-factor", "1e308"], "explore_factor"),
        ],
    )
    def test_overflowing_search_knob_is_1(self, knobs, field):
        # finite knobs whose float arithmetic overflows: an inf UCT scale
        # leaves no arm eligible, and an inf explore_factor x m is no count
        proc = run_python(["-m", "mctsat.cli", str(UF20_01), *knobs])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert field in proc.stderr
        assert proc.stdout == ""

    def test_budget_beyond_float_names_explore_factor(self):
        # the level budget, not the unit weights, is what the float rewards cannot hold
        proc = run_python(["-m", "mctsat.cli", str(UF20_01), "--explore-factor", "1e306"])
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: explore_factor 1e+306 x 91 clauses gives a level budget of 9.1e+307"
            " episodes, but the float rewards need total weight x (n + 1) x level budget"
            " <= the largest float\n"
        )
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "weights", [(2**1100, 3), (2**1022, 2**1022)], ids=["float-overflow", "sum-overflow"]
    )
    def test_weights_beyond_float_are_1(self, tmp_path, weights):
        # a reward the search cannot hold as a float: refused by name, not a traceback
        a, b = weights
        wcnf = tmp_path / "huge.wcnf"
        wcnf.write_text(f"p wcnf 2 2\n{a} 1 2 0\n{b} -1 0\n")
        for reward in ("terminal", "r2"):
            proc = run_python(["-m", "mctsat.cli", str(wcnf), "--reward", reward])
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("error: ")
            assert "largest float" in proc.stderr
            assert proc.stdout == ""

    def test_oracle_guard_is_1(self, tmp_path, capsys):
        cnf = tmp_path / "big.cnf"
        cnf.write_text("p cnf 25 1\n1 2 25 0\n")
        code = run_cli([str(cnf), "--mode", "oracle-check", "--oracle-max-vars", "20"])
        assert code == 1

    def test_oracle_check_all_match_is_0(self, tmp_path):
        out = tmp_path / "ok.csv"
        code = run_cli(
            [
                "gen:n=6,m=14,count=4,seed=3",
                "--mode",
                "oracle-check",
                "--explore-factor",
                "50",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert all(row[-1] == "1" for row in rows[1:])

    def test_oracle_guard_names_the_instance_and_writes_no_rows(self, tmp_path, capsys):
        # the generated instance sorts first and is checked before the guard fails
        big = tmp_path / "zz.cnf"
        big.write_text("p cnf 25 1\n1 2 25 0\n")
        assert run_cli(["gen:n=6,m=14", str(big), "--mode", "oracle-check"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: zz.cnf: 25 variables exceed the enumeration guard 20\n"
        assert captured.out == ""

    def test_oracle_mismatch_beats_a_parse_failure(self, tmp_path, capsys):
        # the starved budget of test_oracle_mismatch_is_3, beside a missing input
        spec = "gen:n=10,m=30,weighted,count=30,seed=6"
        argv = [spec, str(tmp_path / "missing.cnf"), "--mode", "oracle-check"]
        assert run_cli(argv + ["--explore-factor", "0.01", "--seed", "5"]) == 3

    def test_oracle_guard_beats_a_parse_failure(self, tmp_path, capsys):
        big = tmp_path / "big.cnf"
        big.write_text("p cnf 25 1\n1 2 25 0\n")
        argv = [str(big), str(tmp_path / "missing.cnf"), "--mode", "oracle-check"]
        assert run_cli(argv) == 1
        assert capsys.readouterr().out == ""

    def test_non_utf8_file_name_is_written_to_out_as_its_bytes(self, tmp_path):
        # stdout writes the name's own bytes; a CSV --out file must hold them too
        raw = b"bad\xff.cnf"
        if sys.getfilesystemencoding() != "utf-8":
            pytest.skip("file names are not decoded as UTF-8 here")
        try:
            (tmp_path / os.fsdecode(raw)).write_bytes(UF20_01.read_bytes())
        except OSError:
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        out = tmp_path / "out.csv"
        path = str(tmp_path / os.fsdecode(raw))
        assert run_cli([path, "--format", "csv", "--out", str(out)]) == 0
        assert out.read_bytes().splitlines()[1].startswith(raw + b",")


class TestEnumerateMode:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            [
                "gen:n=4,m=6,count=2,seed=1",
                "--mode",
                "enumerate",
                "--executions",
                "5",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["instance", "execution", "distinct_count"]
        assert len(rows) == 1 + 2 * 5
        for name in {row[0] for row in rows[1:]}:
            counts = [int(r[2]) for r in rows[1:] if r[0] == name]
            assert counts == sorted(counts)

    def test_report_json(self, tmp_path, capsys):
        code = run_cli(
            ["gen:n=3,m=5,count=1,seed=2", "--mode", "enumerate", "--executions", "4"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["executions"] == 4
        assert len(obj["curve"]) == 4
        assert obj["distinct_optima"]


class TestAblationMode:
    def test_four_reward_rows_per_instance(self, tmp_path):
        out = tmp_path / "abl.csv"
        code = run_cli(
            [
                "gen:n=5,m=10,count=2,seed=4",
                "--mode",
                "ablation",
                "--repeats",
                "3",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == [
            "instance",
            "class",
            "reward",
            "repeats",
            "mean_objective",
            "mean_wall_ms",
        ]
        assert len(rows) == 1 + 2 * 4
        rewards = [row[2] for row in rows[1:5]]
        assert rewards == ["terminal", "r1", "r2", "mixed"]


class TestAlphaGridMode:
    def test_eleven_cells_per_instance(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli(
            [
                "gen:n=4,m=8,count=1,seed=9",
                "--mode",
                "alpha-grid",
                "--repeats",
                "2",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == [
            "instance",
            "class",
            "alpha",
            "repeats",
            "mean_objective",
            "norm_objective",
            "mean_wall_ms",
        ]
        alphas = [row[2] for row in rows[1:]]
        assert alphas == [f"{i / 10:.1f}" for i in range(11)]
        for row in rows[1:]:
            assert 0.0 <= float(row[5]) <= 1.0


# Imports mctsat, notes which of the modules named in argv[2:] are loaded,
# then runs each argv of the JSON list in argv[1] through ``main`` in the
# same fresh interpreter and prints the exit codes and which of the named
# modules are loaded after the runs.  json is imported only after the first
# note, so it can be watched too.
MODES_THEN_MODULES = """
import sys
import mctsat
imported = [name for name in sys.argv[2:] if name in sys.modules]
import json
from mctsat.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = [name for name in sys.argv[2:] if name in sys.modules]
print(json.dumps({"codes": codes, "imported": imported, "loaded": loaded}))
"""


def modes_then_modules(runs, modules):
    """(stdout lines of the modes, their exit codes, the ``modules`` loaded
    after ``import mctsat``, the ``modules`` loaded after the runs)."""
    proc = run_python(["-c", MODES_THEN_MODULES, json.dumps(runs), *modules])
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    summary = json.loads(last)
    return lines, summary["codes"], summary["imported"], summary["loaded"]


# the names ``import mctsat`` leaves to load on first use, with the modules
# that define them; a submodule's name maps to the submodule
LAZY_NAMES = {
    "EnumerationReport": "mctsat.enumeration",
    "enumerate_optima": "mctsat.enumeration",
    "OracleResult": "mctsat.oracle",
    "brute_force": "mctsat.oracle",
    "CSV_COLUMNS": "mctsat.records",
    "make_record": "mctsat.records",
    "record_to_json": "mctsat.records",
    "enumeration": "mctsat.enumeration",
    "oracle": "mctsat.oracle",
    "records": "mctsat.records",
}


class TestColdStart:
    """No mode needs numpy: importing the package and running all five modes
    leave it unloaded.  ``import mctsat`` leaves the enumerator, the oracle
    and the records module unloaded, and a JSON solve the enumerator, the
    oracle and the CSV writer.  The modes run in a fresh interpreter, since
    the test process itself may hold any of them."""

    def test_five_modes_load_no_numpy(self):
        gen = "gen:n=6,m=14,count=2,seed=3"
        lines, codes, _, loaded = modes_then_modules(
            [
                [str(UF20_01), "--seed", "3"],
                [gen, "--mode", "enumerate", "--executions", "2"],
                [gen, "--mode", "oracle-check", "--explore-factor", "30"],
                [gen, "--mode", "ablation", "--repeats", "1"],
                ["gen:n=4,m=8", "--mode", "alpha-grid", "--repeats", "1"],
            ],
            ["numpy"],
        )
        numpy_loaded = loaded == ["numpy"]
        assert codes == [0, 0, 0, 0, 0]
        assert json.loads(lines[0])["objective"] == 91
        assert [json.loads(line)["alpha"] for line in lines[-11:]] == [i / 10 for i in range(11)]
        assert not numpy_loaded

    def test_import_loads_no_enumerator_oracle_or_records(self):
        watched = ["mctsat.enumeration", "mctsat.oracle", "mctsat.records", "json"]
        _, codes, imported, _ = modes_then_modules([], watched)
        assert codes == []
        assert imported == []

    def test_json_solve_loads_no_enumerator_oracle_or_csv(self):
        watched = ["mctsat.enumeration", "mctsat.oracle", "csv"]
        lines, codes, _, loaded = modes_then_modules([[str(UF20_01), "--seed", "3"]], watched)
        assert codes == [0]
        assert json.loads(lines[0])["objective"] == 91
        assert loaded == []

    @pytest.mark.parametrize("name", LAZY_NAMES)
    def test_lazy_name_resolves_to_its_module_object(self, name, monkeypatch):
        monkeypatch.delattr(mctsat, name)  # resolved again, as on first use
        module = importlib.import_module(LAZY_NAMES[name])
        expected = module if module.__name__ == f"mctsat.{name}" else vars(module)[name]
        assert getattr(mctsat, name) is expected
        assert vars(mctsat)[name] is expected  # cached: later uses skip the lookup

    def test_dir_lists_every_exported_name_and_no_import_helper(self, monkeypatch):
        for name in LAZY_NAMES:
            monkeypatch.delattr(mctsat, name)  # as before first use
        assert set(mctsat.__all__) <= set(dir(mctsat))
        assert not hasattr(mctsat, "importlib")


class TestPublicNames:
    """``mctsat.__all__`` names the package as it is: each name resolves,
    a star import takes them all, and no helper of the tests' reference
    module is still defined in the package or exported."""

    def test_every_exported_name_resolves(self):
        assert [name for name in mctsat.__all__ if not hasattr(mctsat, name)] == []

    def test_star_import_takes_every_exported_name(self):
        namespace = {}
        exec("from mctsat import *", namespace)
        assert set(mctsat.__all__) <= namespace.keys()

    def test_reference_helpers_left_the_package(self):
        moved = [
            name
            for name, obj in vars(mctsat_reference).items()
            if callable(obj) and getattr(obj, "__module__", None) == mctsat_reference.__name__
        ]
        assert "uniform_completion" in moved and "parse_result" in moved
        modules = [mctsat] + [
            importlib.import_module(f"mctsat.{info.name}")
            for info in pkgutil.iter_modules(mctsat.__path__)
        ]
        left = [
            f"{module.__name__}.{name}"
            for module in modules
            for name in moved
            if hasattr(module, name)
        ]
        assert left == []
        assert not set(moved) & set(mctsat.__all__)
        assert not hasattr(mctsat.mcts.EpisodeKernel, "shaped")
        assert not hasattr(mctsat.Episode, "start_depth")


class TestDeterminism:
    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--mode", "enumerate", "--executions", "4"],
            ["--mode", "ablation", "--repeats", "2"],
            ["--mode", "alpha-grid", "--repeats", "2"],
            ["--mode", "oracle-check", "--explore-factor", "30"],
        ],
    )
    def test_repeat_runs_identical_minus_time(self, tmp_path, extra):
        args = ["gen:n=4,m=8,count=2,seed=11", "--seed", "17", "--format", "csv"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(args + extra + ["--out", str(a)])
        run_cli(args + extra + ["--out", str(b)])
        assert stable_csv_body(a) == stable_csv_body(b)

    def test_json_mode_deterministic(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_cli(["gen:n=4,m=8,count=2,seed=11", "--out", str(a)])
        run_cli(["gen:n=4,m=8,count=2,seed=11", "--out", str(b)])
        assert stable_json_body(a) == stable_json_body(b)


# A weighted spec with hard clauses, and the flags each mode runs with.  The
# starved budget varies the objectives across repeats, so the sweep means
# have fractions and the normalised objectives differ; oracle-check runs a
# full budget so that it matches and exits 0.
PIN_SPEC = "gen:n=10,m=40,weighted,hard=2,count=2,seed=3"
STARVED = ["--explore-factor", "0.02"]
PIN_FLAGS = {
    "solve": STARVED,
    "enumerate": STARVED + ["--executions", "3"],
    "oracle-check": ["--explore-factor", "30"],
    "ablation": STARVED + ["--repeats", "3"],
    "alpha-grid": STARVED + ["--repeats", "3"],
}


def masked_stdout(text, fmt):
    """Stdout with the value of each wall-time field replaced by '*'.  The
    CSV cells of a ``gen:`` run hold no commas, so rows split on them."""
    if fmt == "json":
        return re.sub(r'("(?:mean_)?wall_ms": )[^,}]+', r"\1*", text)
    lines = [line.split(",") for line in text.splitlines()]
    drop = [i for i, name in enumerate(lines[0]) if name in TIME_COLUMNS]
    for row in lines[1:]:
        for i in drop:
            row[i] = "*"
    return "".join(",".join(row) + "\n" for row in lines)


class TestPinnedStdout:
    """Every mode's stdout in both formats, byte for byte apart from wall
    times, against tests/data/cli_stdout.json.  The pin holds formats no
    other test checks: JSON 12.0 against CSV 12.000000, match as true
    against 1, and the shape of enumerate's JSON.  To re-pin after a
    deliberate format change, store ``masked_stdout`` of each case under
    its "<mode>.<format>" key."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("mode", list(PIN_FLAGS))
    def test_masked_stdout_matches_pin(self, capsys, mode, fmt):
        argv = [PIN_SPEC, "--mode", mode, "--format", fmt, "--seed", "5"]
        assert run_cli(argv + PIN_FLAGS[mode]) == 0
        pinned = json.loads(PINNED_STDOUT.read_text())
        assert masked_stdout(capsys.readouterr().out, fmt) == pinned[f"{mode}.{fmt}"]
