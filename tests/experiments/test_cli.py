"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_ids_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_run_scheme_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "nope"])


class TestCommands:
    def test_schemes_lists_all_three(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("parallel_batch", "object_probability", "cluster_probability"):
            assert name in out

    def test_workload_stats(self, capsys):
        assert main(["workload", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "total size" in out
        assert "avg request size" in out

    def test_workload_dump(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["workload", "--scale", "small", "--out", str(path)]) == 0
        assert path.exists()
        from repro.workload import load_workload

        assert load_workload(path).num_objects == 2500

    def test_run_prints_metrics(self, capsys):
        rc = main(
            ["run", "--scheme", "object_probability", "--scale", "small",
             "--samples", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg bandwidth" in out
        assert "avg response" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out
        assert "400" in out

    def test_experiment_small_scale(self, capsys):
        assert main(["experiment", "fig9", "--scale", "small", "--num-samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "F9" in out
        assert "parallel batch" in out

    def test_compare_command(self, capsys):
        rc = main(
            ["compare", "parallel_batch", "cluster_probability",
             "--scale", "small", "--samples", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "response_s" in out
        assert "paired samples" in out

    def test_experiment_chart_flag(self, capsys):
        rc = main(
            ["experiment", "fig9", "--scale", "small", "--num-samples", "8", "--chart"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "a: switch" in out  # chart legend rendered

    def test_table1_chart_uses_numeric_columns(self, capsys):
        rc = main(["experiment", "table1", "--chart"])
        assert rc == 0
        out = capsys.readouterr().out
        # value/paper are numeric columns; the textual "kind" is skipped
        assert "a: value" in out
        assert "kind" not in out.splitlines()[-1]

    def test_experiment_csv_flag(self, tmp_path, capsys):
        out_path = tmp_path / "t1.csv"
        rc = main(["experiment", "table1", "--csv", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        assert "parameter" in out_path.read_text().splitlines()[0]

    def test_reproduce_command(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(
            ["reproduce", "--scale", "small", "--num-samples", "8",
             "--only", "table1", "fig9", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "INDEX.md").exists()
        assert (out / "table1.txt").exists()
        assert (out / "fig9.csv").exists()
        index = (out / "INDEX.md").read_text()
        assert "T1" in index and "F9" in index

    def test_trace_command_exports_and_validates(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        out = tmp_path / "telemetry"
        rc = main(
            ["trace", "--requests", "20", "--policy", "concurrent",
             "--scale", "small", "--out-dir", str(out), "--validate"]
        )
        assert rc == 0
        assert (out / "trace.json").exists()
        assert (out / "metrics.jsonl").exists()
        stdout = capsys.readouterr().out
        assert "Stage attribution" in stdout
        assert "trace validation OK" in stdout
        assert "sojourn" in stdout  # at least one flame rendered

    def test_trace_command_refuses_when_tracing_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        rc = main(
            ["trace", "--requests", "5", "--scale", "small",
             "--out-dir", str(tmp_path / "t")]
        )
        assert rc == 2


class TestFaultCommands:
    def test_open_fail_flag(self, capsys):
        rc = main(
            ["open", "--scale", "small", "--arrivals", "10",
             "--fail", "L0.D0=1800", "--fail", "L0.D1=3600"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "aborted:" in out
        assert "availability:" in out

    def test_open_fail_rejects_bad_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["open", "--scale", "small", "--fail", "L0.D0"])
        assert exc.value.code == 2
        assert "DRIVE=TIME" in capsys.readouterr().err

    def test_open_fail_rejects_bad_number(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["open", "--scale", "small", "--fail", "L0.D0=soon"])
        assert exc.value.code == 2
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["open", "--fail", "=100"],
        ["open", "--fail", "L0.D0=nan"],
        ["open", "--fail-tape", "L0.T0"],
        ["chaos", "--fail", "L0.D0=x"],
        ["chaos", "--fail", "L0.D0=-100"],
        ["chaos", "--fail-tape", "L0.T0=later"],
    ])
    def test_malformed_fault_value_exits_2_before_any_workload(
        self, capsys, monkeypatch, argv
    ):
        # A malformed --fail/--fail-tape value is a usage error like an
        # unknown id: one stderr line, exit 2, no workload built.
        def no_workload(*args, **kwargs):
            raise AssertionError("workload built before argument checks")

        monkeypatch.setattr("repro.experiments.paper_workload", no_workload)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scale", "small"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --fail")
        assert err.count("\n") == 1

    def test_open_fail_rejects_unknown_drive(self, capsys):
        # Unknown ids are a usage error: exit 2 with the known-id list,
        # before any simulation starts (ISSUE 9 satellite).
        with pytest.raises(SystemExit) as exc:
            main(["open", "--scale", "small", "--fail", "L9.D9=10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown drive" in err
        assert "L0.D0" in err  # the known-id list is printed

    def test_fail_tape_rejects_unknown_tape(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--scale", "small", "--fail-tape", "L9.T99=10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown tape" in err
        assert "L0.T0" in err

    @pytest.mark.parametrize("flag, value", [
        ("--fail", "L0.D0=100"),
        ("--fail-tape", "L0.T0=100"),
    ])
    def test_open_fault_flags_need_concurrent_policy(
        self, capsys, monkeypatch, flag, value
    ):
        # An unsupported policy/fault combination is a usage error caught
        # before the workload is generated or placed.
        def no_workload(*args, **kwargs):
            raise AssertionError("workload built before argument checks")

        monkeypatch.setattr("repro.experiments.paper_workload", no_workload)
        with pytest.raises(SystemExit) as exc:
            main(["open", "--scale", "small", "--policy", "serial-fcfs",
                  flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "requires --policy concurrent" in err
        assert "Traceback" not in err

    def test_open_tape_loss_prints_repair_summary(self, capsys):
        rc = main(
            ["open", "--scale", "small", "--arrivals", "10",
             "--redundancy", "r=2", "--fail-tape", "L0.T1=600",
             "--repair-policy", "fair-share"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tape losses:" in out
        assert "members rebuilt:" in out
        assert "objects lost:" in out

    def test_chaos_tape_loss_with_repair_policy(self, capsys):
        rc = main(
            ["chaos", "--scale", "small", "--arrivals", "10",
             "--mtbf", "100.0", "--mttr", "0.1",
             "--redundancy", "r=2", "--fail-tape", "L0.T1=600",
             "--repair-policy", "repair-first",
             "--read-selection", "cheapest"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "repair policy:" in out
        assert "repair-first" in out
        assert "durability:" in out

    def test_chaos_prints_fault_summary(self, capsys):
        rc = main(
            ["chaos", "--scale", "small", "--arrivals", "15",
             "--mtbf", "0.5", "--mttr", "0.1", "--seed", "7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "availability:" in out
        assert "drive failures:" in out
        assert "drive repairs:" in out
        assert "mean sojourn:" in out

    def test_chaos_with_transients_and_export(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        out_dir = tmp_path / "chaos"
        rc = main(
            ["chaos", "--scale", "small", "--arrivals", "10",
             "--mtbf", "100.0", "--mttr", "0.1",
             "--transient-prob", "0.2", "--retries", "3",
             "--out-dir", str(out_dir)]
        )
        assert rc == 0
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "metrics.jsonl").exists()
        out = capsys.readouterr().out
        assert "transient errors:" in out

    def test_chaos_is_deterministic(self, capsys):
        argv = ["chaos", "--scale", "small", "--arrivals", "12",
                "--mtbf", "0.5", "--mttr", "0.1", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_chaos_weibull_shape(self, capsys):
        rc = main(
            ["chaos", "--scale", "small", "--arrivals", "10",
             "--mtbf", "0.5", "--mttr", "0.1",
             "--distribution", "weibull", "--shape", "1.5"]
        )
        assert rc == 0
        assert "weibull" in capsys.readouterr().out


class TestArrivalArgs:
    @pytest.mark.parametrize("argv", [
        ["open", "--rate", "0"],
        ["open", "--rate", "-2"],
        ["open", "--rate", "nan"],
        ["open", "--rate", "inf"],
        ["open", "--rate", "fast"],
        ["open", "--arrivals", "0"],
        ["chaos", "--rate", "nan"],
        ["chaos", "--arrivals", "-1"],
        ["trace", "--rate", "0"],
        ["trace", "--requests", "0"],
        ["profile", "--rate", "nan"],
        ["profile", "--arrivals", "0"],
    ])
    def test_invalid_arrival_parameters_exit_2_at_parse_time(
        self, capsys, monkeypatch, argv
    ):
        def no_workload(*args, **kwargs):
            raise AssertionError("workload built before argument checks")

        monkeypatch.setattr("repro.experiments.paper_workload", no_workload)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scale", "small"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[1] in err
        assert "Traceback" not in err


class TestNumericFlags:
    """Fault, retry, window and sampling flags are checked when the command
    line is parsed: a bad value exits 2 before any workload is generated."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--mtbf", "nan"],
        ["chaos", "--mtbf", "0"],
        ["chaos", "--mtbf", "inf"],
        ["chaos", "--mttr", "-1"],
        ["chaos", "--mttr", "nan"],
        ["chaos", "--shape", "0"],
        ["chaos", "--shape", "inf"],
        ["chaos", "--transient-prob", "2"],
        ["chaos", "--transient-prob", "-0.1"],
        ["chaos", "--transient-prob", "nan"],
        ["chaos", "--retries", "-1"],
        ["chaos", "--retries", "two"],
        ["chaos", "--sample-period", "0"],
        ["chaos", "--sample-period", "nan"],
        ["trace", "--sample-period", "-300"],
        ["open", "--window", "0"],
        ["open", "--window", "nan"],
    ])
    def test_invalid_value_exits_2_before_any_workload(self, capsys, monkeypatch, argv):
        def no_workload(*args, **kwargs):
            raise AssertionError("workload generated before argument checks")

        monkeypatch.setattr("repro.experiments.runner.generate_workload", no_workload)
        monkeypatch.setattr("repro.cli.generate_workload", no_workload)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scale", "small"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # argparse prints its usage, then exactly one error line.
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"argument {argv[1]}:" in errors[0]
        assert "Traceback" not in err

    def test_boundary_values_parse(self):
        args = build_parser().parse_args(
            ["chaos", "--transient-prob", "1", "--retries", "0", "--mtbf", "1e9"]
        )
        assert (args.transient_prob, args.retries, args.mtbf) == (1.0, 0, 1e9)
        args = build_parser().parse_args(["chaos", "--transient-prob", "0"])
        assert args.transient_prob == 0.0
        assert build_parser().parse_args(["open", "--window", "0.5"]).window == 0.5


class TestSeekPlannerFlag:
    """Every seek planner round-trips through the CLI, and nothing else does."""

    COMMANDS = (["open"], ["profile"], ["sweep", "seekplan"])

    def test_every_registered_name_parses_on_every_command(self):
        from repro.sim import available_seek_planners

        parser = build_parser()
        for base in self.COMMANDS:
            for name in available_seek_planners():
                args = parser.parse_args(base + ["--seek-planner", name])
                assert args.seek_planner == name

    def test_flag_choices_match_the_registry_exactly(self):
        import argparse

        from repro.sim import available_seek_planners

        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for base in self.COMMANDS:
            command = sub.choices[base[0]]
            action = next(
                a for a in command._actions if a.dest == "seek_planner"
            )
            assert set(action.choices) == set(available_seek_planners())

    def test_unknown_planner_rejected(self):
        # "approx" was a planner once; it is now as unknown as any typo.
        for name in ("zigzag", "approx"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["open", "--seek-planner", name])
            assert exc.value.code == 2

    def test_sweep_settings_carry_the_planner(self):
        from repro.cli import _settings

        args = build_parser().parse_args(
            ["sweep", "seekplan", "--scale", "small", "--seek-planner", "exact"]
        )
        assert _settings(args).seek_planner == "exact"

    def test_open_reports_the_planner(self, capsys):
        assert (
            main(
                [
                    "open",
                    "--scale",
                    "small",
                    "--arrivals",
                    "3",
                    "--seek-planner",
                    "exact",
                ]
            )
            == 0
        )
        assert "seek planner:      exact" in capsys.readouterr().out


class TestTelemetryCommands:
    """The fleet pipeline end to end through the CLI: sweep artifacts, the
    report/metrics commands, SLO exit codes, and the logging flags."""

    SWEEP = ["sweep", "fig6", "--scale", "small", "--num-samples", "5",
             "--no-cache", "--workers", "1"]

    def test_sweep_writes_fleet_artifacts(self, tmp_path, capsys):
        fleet_path = tmp_path / "fleet.jsonl"
        html_path = tmp_path / "sweep.html"
        rc = main(self.SWEEP + [
            "--metrics-out", str(fleet_path),
            "--report", str(html_path),
            "--slo", "aborted_requests == 0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1/1 objectives met" in out
        assert fleet_path.exists()
        doc = html_path.read_text()
        assert doc.lstrip().startswith("<!DOCTYPE html>")
        assert "Service-level objectives" in doc

        from repro.obs import read_fleet_jsonl

        fleet = read_fleet_jsonl(fleet_path)
        assert fleet.counter("requests.completed") > 0
        assert "latency.sojourn_s" in fleet.digests

    def test_sweep_slo_failure_sets_exit_code(self, capsys):
        rc = main(self.SWEEP + ["--slo", "p99_sojourn <= 0.001"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_rebuilds_from_fleet_jsonl(self, tmp_path, capsys):
        fleet_path = tmp_path / "fleet.jsonl"
        assert main(self.SWEEP + ["--metrics-out", str(fleet_path)]) == 0
        capsys.readouterr()
        html_path = tmp_path / "report.html"
        rc = main(["report", str(fleet_path), "--out", str(html_path),
                   "--slo", "aborted_requests == 0"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        assert "<!DOCTYPE html>" in html_path.read_text()

    def test_report_from_chaos_metrics_jsonl(self, tmp_path, capsys):
        out_dir = tmp_path / "telem"
        assert main(
            ["chaos", "--scale", "small", "--arrivals", "8",
             "--mtbf", "0.5", "--mttr", "0.1", "--seed", "3",
             "--out-dir", str(out_dir)]
        ) == 0
        capsys.readouterr()
        html_path = tmp_path / "chaos.html"
        rc = main(["report", str(out_dir / "metrics.jsonl"),
                   "--out", str(html_path), "--slo", "availability <= 1"])
        assert rc == 0
        assert html_path.exists()

    def test_report_missing_file_is_an_error(self, capsys):
        assert main(["report", "no/such/file.jsonl"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_chaos_slo_verdicts_and_exit_code(self, capsys):
        argv = ["chaos", "--scale", "small", "--arrivals", "8",
                "--mtbf", "0.5", "--mttr", "0.1", "--seed", "3"]
        # An impossible objective fails the run...
        assert main(argv + ["--slo", "p99_sojourn <= 0.001"]) == 1
        assert "FAIL" in capsys.readouterr().out
        # ...a trivially true one passes it.
        assert main(argv + ["--slo", "availability <= 1"]) == 0
        assert "1/1 objectives met" in capsys.readouterr().out

    def test_metrics_pretty_prints_fleet_jsonl(self, tmp_path, capsys):
        fleet_path = tmp_path / "fleet.jsonl"
        assert main(self.SWEEP + ["--metrics-out", str(fleet_path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(fleet_path)]) == 0
        out = capsys.readouterr().out
        assert "[fleet]" in out
        assert "[snapshot]" in out

    def test_quiet_and_default_logging(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        assert main(["experiment", "fig9", "--scale", "small",
                     "--num-samples", "8", "--csv", str(csv)]) == 0
        err = capsys.readouterr().err
        assert "CSV written" in err  # status goes to stderr, not stdout
        assert main(["-q", "experiment", "fig9", "--scale", "small",
                     "--num-samples", "8", "--csv", str(csv)]) == 0
        assert "CSV written" not in capsys.readouterr().err


def _subcommands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _defaults_map(parser):
    """``{dest: {"flags": [...], "default": ...}}`` of one (sub)parser."""
    return {
        action.dest: {"flags": list(action.option_strings), "default": action.default}
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    }


class TestFlagDefaultsPin:
    """Every subcommand keeps the flags and defaults pinned in
    ``golden/cli_defaults.json`` (taken before the flags were declared
    once), apart from the deliberate changes spelled out here."""

    @staticmethod
    def expected():
        pin = json.loads((Path(__file__).parent / "golden" / "cli_defaults.json").read_text())
        # Nothing read --num-samples on these commands, so it went.
        for command in ("open", "chaos", "trace", "profile", "workload"):
            del pin[command]["num_samples"]
        # --samples is a second spelling of --num-samples; run and compare
        # keep their 200 default on the merged flag.
        for command in ("experiment", "sweep", "reproduce", "run", "compare"):
            pin[command]["num_samples"]["flags"].append("--samples")
        for command in ("run", "compare"):
            pin[command]["num_samples"]["default"] = pin[command].pop("samples")["default"]
        # --requests is a second spelling of --arrivals; trace keeps its 50.
        for command in ("open", "chaos", "profile"):
            pin[command]["arrivals"]["flags"].append("--requests")
        pin["trace"]["arrivals"] = {
            "flags": ["--arrivals", "--requests"],
            "default": pin["trace"].pop("requests")["default"],
        }
        return pin

    def test_flags_and_defaults_match_the_pin(self):
        parser = build_parser()
        actual = {"": _defaults_map(parser)}
        for name, command in _subcommands(parser).items():
            actual[name] = _defaults_map(command)
        assert actual == self.expected()


def _numeric_flags():
    """``(command, option strings, type)`` of every numeric flag."""
    for name, command in _subcommands(build_parser()).items():
        for action in command._actions:
            if action.option_strings and getattr(action.type, "__name__", "") in (
                "int", "float"
            ):
                yield name, tuple(action.option_strings), action.type


#: Positional arguments each command needs to reach its flags.
_POSITIONALS = {
    "experiment": ["table1"],
    "sweep": ["fig6"],
    "compare": ["parallel_batch", "object_probability"],
    "report": ["in.jsonl"],
    "metrics": ["in.jsonl"],
}

_PROBES = ("0", "-1", "nan", "inf", "x")


def _excluded(convert, text):
    try:
        convert(text)
    except (argparse.ArgumentTypeError, ValueError):
        return True
    return False


def _no_workload(monkeypatch):
    from repro.workload.generator import WorkloadGenerator

    def refuse(self):
        raise AssertionError("workload generated before argument checks")

    monkeypatch.setattr(WorkloadGenerator, "generate", refuse)


def _assert_usage_error(capsys, argv, flag=None):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    if flag is not None:
        assert flag in errors[0]
    assert "Traceback" not in err


class TestEveryNumericFlag:
    """A property of the whole parser: every numeric flag of every
    subcommand checks its domain when the command line is parsed."""

    FLAGS = list(_numeric_flags())

    def test_the_walk_finds_the_flags(self):
        found = {(command, flags[0]) for command, flags, _ in self.FLAGS}
        assert {("run", "--num-samples"), ("chaos", "--fault-seed"),
                ("metrics", "--interval"), ("sweep", "--workers")} <= found

    @pytest.mark.parametrize(
        "command, flags, convert", FLAGS,
        ids=[f"{command} {flags[0]}" for command, flags, _ in FLAGS],
    )
    def test_domain_is_declared(self, command, flags, convert):
        # A bare int/float would take -1 and fail deep in the run.
        assert convert not in (int, float)
        for text in ("-1", "nan", "inf", "x"):
            assert _excluded(convert, text), f"{command} {flags[0]} takes {text}"

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flags[0], value)
            for command, flags, convert in FLAGS
            for value in _PROBES
            if _excluded(convert, value)
        ],
    )
    def test_out_of_domain_value_is_a_usage_error(
        self, capsys, monkeypatch, command, flag, value
    ):
        _no_workload(monkeypatch)
        argv = [command, *_POSITIONALS.get(command, []), flag, value, "--scale", "small"]
        if command in ("report", "metrics"):
            argv = argv[:-2]  # no --scale there
        _assert_usage_error(capsys, argv, flag=f"argument {flag}")


class TestUsageErrors:
    """Each of these once built a workload and then died with a traceback
    (or printed nan); each is now one usage error line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--m", "0"],
        ["open", "--m", "99"],
        ["profile", "--m", "8"],
        ["open", "--seed", "-1"],
        ["workload", "--seed", "-1"],
        ["chaos", "--fault-seed", "-1"],
        ["run", "--samples", "0"],
        ["run", "--libraries", "0"],
        ["compare", "parallel_batch", "object_probability", "--samples", "0"],
        ["experiment", "fig6", "--num-samples", "0"],
        ["open", "--redundancy", "bogus"],
        ["open", "--redundancy", "r=0"],
        ["open", "--redundancy", "k=9,n=3"],
        ["chaos", "--redundancy", "bogus"],
        ["chaos", "--redundancy", "r=0"],
        ["chaos", "--redundancy", "k=9,n=3"],
        ["sweep", "fig6", "--redundancy", "bogus"],
        ["sweep", "fig6", "--redundancy", "r=0"],
        ["sweep", "fig6", "--redundancy", "k=9,n=3"],
        ["chaos", "--slo", "p99_sojourn is small"],
        ["run", "--alpha", "nan"],
        ["sweep", "fig6", "--workers", "0"],
        ["metrics", "in.jsonl", "--interval", "-1"],
    ])
    def test_rejected_before_any_workload(self, capsys, monkeypatch, argv):
        _no_workload(monkeypatch)
        _assert_usage_error(capsys, argv, flag=argv[-2])

    def test_unknown_repro_scale_is_a_usage_error(self, capsys, monkeypatch):
        _no_workload(monkeypatch)
        monkeypatch.setenv("REPRO_SCALE", "giant")
        _assert_usage_error(capsys, ["open"], flag="unknown scale")

    def test_m_bound_follows_the_drive_count(self):
        from repro.cli import _check_args

        parser = build_parser()
        for m in ("1", "7"):
            _check_args(parser, parser.parse_args(["open", "--m", m, "--scale", "small"]))
        # m only configures parallel_batch; other schemes ignore it.
        _check_args(parser, parser.parse_args(
            ["open", "--m", "99", "--scheme", "object_probability"]))


class TestSampleCount:
    @pytest.mark.parametrize("flag", ["--num-samples", "--samples"])
    def test_run_evaluates_the_requested_samples(self, capsys, flag):
        assert main(["run", "--scale", "small", flag, "5"]) == 0
        assert "samples:           5\n" in capsys.readouterr().out

    def test_compare_pairs_the_requested_samples(self, capsys):
        assert main(["compare", "parallel_batch", "object_probability",
                     "--scale", "small", "--num-samples", "5"]) == 0
        assert "of 5 paired samples" in capsys.readouterr().out
