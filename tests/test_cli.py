"""Command-line interface tests: outputs, formats, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borelstein
from borelstein import acceptance, mg1
from borelstein.cli import _parse_service, build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPmf:
    def test_rows_sum_and_first_row(self, capsys):
        code, out, _ = run(["pmf", "--lambda", "0.5", "--eps", "1e-10"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,pmf,cdf"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(math.exp(-0.5), rel=1e-15)
        cdf = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] >= 1.0 - 1e-10

    def test_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "pmf.json"
        code, _, _ = run(
            ["pmf", "--lambda", "0.3", "--format", "json", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["columns"] == ["j", "pmf", "cdf"]

    def test_usage_error_on_bad_lambda(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--lambda", "1.5"])
        assert exc.value.code == 2

    def test_numeric_error_exit_code(self, capsys):
        code, _, err = run(
            ["pmf", "--lambda", "0.99", "--eps", "1e-10", "--cap", "100"], capsys
        )
        assert code == 3
        assert "numeric failure" in err

    def test_bad_eps_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--lambda", "0.5", "--eps", "0"])
        assert exc.value.code == 2

    def test_eps_below_double_precision_is_usage_error(self, capsys):
        # 1 - 1e-300 rounds to 1: no window sum can certify that target
        with pytest.raises(SystemExit) as exc:
            main(["pmf", "--lambda", "0.5", "--eps", "1e-300"])
        assert exc.value.code == 2


class TestSteinCheck:
    def test_passes_and_exports_table(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "stein-check",
                "--lambda",
                "0.3",
                "--table-size",
                "25",
                "--out",
                str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [c["criterion_id"] for c in summary["criteria"]] == ["4", "5", "6", "7"]
        lines = (tmp_path / "stein_table.csv").read_text().strip().splitlines()
        assert lines[0] == "k,m,a_km,lemma1_bound"
        k, m, a_km, bound = lines[1].split(",")
        assert (k, m) == ("2", "2")
        assert float(a_km) == 1.0
        for line in lines[1:]:
            _, _, a_km, bound = line.split(",")
            assert abs(float(a_km)) <= float(bound) + 1e-12

    def test_high_lambda_passes(self, capsys):
        code, _, _ = run(["stein-check", "--lambda", "0.9", "--table-size", "40"], capsys)
        assert code == 0

    def test_table_size_above_cap_is_numeric_failure(self, capsys):
        code, _, err = run(
            ["stein-check", "--lambda", "0.5", "--table-size", "100000"], capsys
        )
        assert code == 3
        assert "MAX_TABLE_WINDOW" in err


class TestQueueCommands:
    def test_sim_deterministic_given_seed(self, capsys):
        argv = [
            "queue-sim",
            "--lambda",
            "0.3",
            "--service",
            "exponential",
            "--n",
            "20000",
            "--seed",
            "11",
        ]
        _, out_a, _ = run(argv, capsys)
        _, out_b, _ = run(argv, capsys)
        assert out_a == out_b

    def test_bounds_prints_na_note_at_half(self, capsys):
        code, out, err = run(
            ["queue-bounds", "--lambda", "0.5", "--service", "exponential"], capsys
        )
        assert code == 0
        assert "qbd2_or_NA" in out.splitlines()[0]
        assert ",NA," in out.splitlines()[1]
        assert "needs lambda < 1/2" in err

    def test_sim_columns_match_contract(self, capsys):
        code, out, _ = run(
            [
                "queue-sim",
                "--lambda",
                "0.2",
                "--service",
                "two_point:0.5:0.5",
                "--n",
                "5000",
            ],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "lambda,service_kind,service_params,n,censored,tv_lower,tv_upper,"
            "qbd1,qbd2_or_NA,var_s,e_abs_s"
        )

    def test_cap_censors_below_the_exact_window(self, capsys):
        # --cap is the censoring cap only; the exact window has its own cap
        argv = ["queue-sim", "--lambda", "0.9", "--service", "exponential"]
        code, out, _ = run(argv + ["--n", "1000", "--cap", "20"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert int(dict(zip(header.split(","), row.split(",")))["censored"]) > 0

    def test_cap_below_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["queue-sim", "--lambda", "0.5", "--n", "100", "--cap", "0"])
        assert exc.value.code == 2

    def test_bad_service_spec_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["queue-sim", "--lambda", "0.2", "--service", "pareto:3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("deterministic:5", "bad service spec"),
            ("exponential:abc", "bad service spec"),
            ("gamma:4:9", "bad service spec"),
            ("twopoint:0.5:0.5", "unknown service"),
        ],
    )
    def test_malformed_service_spec_is_usage_error(self, spec, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["queue-bounds", "--lambda", "0.2", "--service", spec])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_service_columns_round_trip(self, capsys):
        # service_kind:service_params parses back to the model that printed it
        cases = {
            "all": [mg1.deterministic(), *acceptance.QUEUE_SERVICES],
            "gamma:0.123456789;two_point:0.123456789:0.3": [
                mg1.gamma_service(0.123456789),
                mg1.two_point(0.123456789, 0.3),
            ],
        }
        parser = build_parser()
        kinds = set()
        for spec, services in cases.items():
            code, out, _ = run(
                ["queue-bounds", "--lambda", "0.3", "--service", spec], capsys
            )
            assert code == 0
            header, *rows = out.strip().splitlines()
            cols = header.split(",")
            assert len(rows) == len(services)
            for line, service in zip(rows, services):
                row = dict(zip(cols, line.split(",")))
                kinds.add(row["service_kind"])
                printed = f"{row['service_kind']}:{row['service_params']}"
                assert _parse_service(printed, parser) == service
        assert kinds == set(mg1.SERVICE_KINDS)

    @pytest.mark.parametrize("spec", ["gamma:nan", "gamma:inf"])
    def test_non_finite_gamma_shape_is_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["queue-sim", "--lambda", "0.2", "--service", spec, "--n", "100"])
        assert exc.value.code == 2
        assert "bad service spec" in capsys.readouterr().err


COMMAND_FLAGS = {
    "pmf": "lambda lambda-grid eps cap out format",
    "stein-check": "lambda lambda-grid table-size seed quick out",
    "sb-check": "lambda lambda-grid seed quick out",
    "tails": "lambda lambda-grid seed quick out",
    "queue-sim": "lambda lambda-grid service n seed cap out format",
    "queue-bounds": "lambda lambda-grid service out format",
    "report": "seed quick out",
}


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {
                opt[2:]
                for action in sp._actions
                for opt in action.option_strings
                if opt != "--help" and opt.startswith("--")
            }
            for name, sp in sub.choices.items()
        }
        assert got == {name: set(flags.split()) for name, flags in COMMAND_FLAGS.items()}

    @pytest.mark.parametrize(
        "argv",
        [
            ["sb-check", "--n", "5"],
            ["report", "--lambda", "0.3"],
            ["queue-bounds", "--seed", "1"],
            ["pmf", "--lambda", "0.5", "--quick"],
        ],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unread_flag_prints_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sb-check", "--n", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: borelstein sb-check" in err
        assert "unrecognized arguments: --n 5" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pmf", "--lambda", "0.5", "--cap", "0"], "--cap must be >= 1"),
            (["queue-sim", "--lambda", "0.5", "--n", "0"], "--n must be >= 1"),
        ],
    )
    def test_range_checks_on_the_commands_that_take_them(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["report", "stein-check", "sb-check", "queue-sim", "tails"]
    )
    def test_negative_seed_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: borelstein {command}" in err
        assert "--seed must be >= 0" in err


class TestSbCheck:
    def test_runs_suites_2_3_12(self, capsys, tmp_path):
        code, out, _ = run(["sb-check", "--lambda", "0.5", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out.count("[PASS] criterion") == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [c["criterion_id"] for c in summary["criteria"]] == ["2", "3", "12"]
        rows = (tmp_path / "crit_02_sizebias_mixture.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0.5,")


class TestTails:
    def test_rows_and_domination(self, capsys, tmp_path):
        code, _, _ = run(["tails", "--lambda", "0.4", "--out", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "crit_11_tail_bounds.csv").read_text().strip().splitlines()
        cols = lines[0].split(",")
        assert cols[:7] == [
            "lambda",
            "t",
            "exact_lower",
            "lower_bound",
            "exact_upper",
            "exact_upper_err",
            "upper_bound_opt",
        ]
        assert len(lines) == 6
        for line in lines[1:]:
            row = dict(zip(cols, map(float, line.split(","))))
            assert row["exact_lower"] <= row["lower_bound"]
            assert row["exact_upper"] <= row["upper_bound_opt"] + row["exact_upper_err"]


class TestReport:
    def test_quick_report_passes_and_is_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["report", "--quick", "--seed", "7", "--out", str(a)]) == 0
        assert main(["report", "--quick", "--seed", "7", "--out", str(b)]) == 0
        capsys.readouterr()
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        summary = json.loads((a / "summary.json").read_text())
        assert len(summary["criteria"]) == 12
        assert all(c["status"] == "pass" for c in summary["criteria"])

    def test_quick_report_rows_match_header(self, capsys, tmp_path):
        assert main(["report", "--quick", "--seed", "42", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for path in sorted(tmp_path.glob("*.csv")):
            header, *rows = path.read_text().splitlines()
            width = len(header.split(","))
            for row in rows:
                assert len(row.split(",")) == width, (path.name, row)

    def test_different_seeds_change_simulation_output(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["report", "--quick", "--seed", "1", "--out", str(a)])
        main(["report", "--quick", "--seed", "2", "--out", str(b)])
        capsys.readouterr()
        sim = "crit_09_md1_exactness.csv"
        assert (a / sim).read_bytes() != (b / sim).read_bytes()


def run_python(*args):
    """A fresh interpreter that imports this checkout's package."""
    src = str(Path(borelstein.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestEntryPoints:
    def test_python_dash_m_help(self):
        proc = run_python("-m", "borelstein", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "stein-check" in proc.stdout

    def test_import_skips_heavy_scipy_modules(self):
        # no scipy or mpmath at import, and no numpy.ma once a simulation ran
        script = (
            "import sys, borelstein, borelstein.cli\n"
            "heavy = lambda: [m for m in sys.modules if m.startswith(('scipy', 'mpmath'))]\n"
            "print(heavy())\n"
            "borelstein.simulate(0.4, borelstein.uniform_symmetric(1.0), 10_000, 1)\n"
            "print(heavy() + [m for m in ('numpy.ma',) if m in sys.modules])\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]"]
