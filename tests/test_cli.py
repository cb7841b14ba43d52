"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_help_mentions_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("info", "analyze", "repair", "generate", "serve", "client"):
            assert command in out

    def test_module_docstring_covers_service_commands(self):
        import repro.cli

        assert "serve" in repro.cli.__doc__
        assert "client" in repro.cli.__doc__

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0
        assert args.max_sessions == 8
        assert args.service_workers == 4
        assert args.deadline is None

    def test_client_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "ping"])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "s27"])
        assert args.mode == "iterative"
        assert not args.all_modes

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "s35932"])
        assert args.scale == 0.05
        assert args.output == "-"

    def test_engine_defaults(self):
        """One propagation path: no engine choice left to default."""
        args = build_parser().parse_args(["analyze", "s27"])
        assert not hasattr(args, "engine")
        assert args.arc_cache is None
        assert not args.timing_report

    def test_engine_choices(self):
        """The waveform-engine flag is gone from every verb that had it:
        passing it is a usage error."""
        removed = "engine"
        for verb in ("analyze", "explain", "serve"):
            target = [] if verb == "serve" else ["s27"]
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb, *target, f"--{removed}", "batch"])

    def test_process_pool_flags_rejected(self):
        """Batched solves run in-process only, every arc is an exact
        Newton solve, and the memo and the provenance ledger always run:
        the process pool's, the screened solver tier's and the memo and
        ledger off-switches' flags are usage errors."""
        tier_flags = (
            ["--solver-tier", "screened"],
            ["--screen-tolerance", "1e-10"],
            ["--screen-slack-margin", "0.1"],
        )
        for argv in (
            ["analyze", "s27", "--workers", "2"],
            ["analyze", "s27", "--worker-retries", "3"],
            ["analyze", "s27", "--worker-timeout", "60"],
            ["serve", "--workers", "2"],
            *(
                [*verb, *flag]
                for verb in (["analyze", "s27"], ["explain", "s27"], ["serve"])
                for flag in tier_flags
            ),
            *(
                [*verb, flag]
                for verb in (["analyze", "s27"], ["serve"])
                for flag in ("--no-incremental", "--no-provenance")
            ),
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv


class TestInfo:
    def test_info_s27(self, capsys):
        assert main(["info", "s27"]) == 0
        out = capsys.readouterr().out
        assert "16 cells" in out
        assert "OK" in out

    def test_info_generated(self, capsys):
        assert main(["info", "gen:s35932", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "s35932_like" in out

    def test_unknown_generator(self):
        # Input errors map to exit code 2 instead of raising out of main.
        assert main(["info", "gen:s99999"]) == 2

    def test_bench_file(self, tmp_path, capsys):
        from repro.circuit.benchmarks import S27_BENCH

        path = tmp_path / "mine.bench"
        path.write_text(S27_BENCH)
        assert main(["info", str(path)]) == 0
        assert "16 cells" in capsys.readouterr().out


class TestAnalyze:
    def test_single_mode(self, capsys):
        assert main(["analyze", "s27", "--mode", "best_case"]) == 0
        out = capsys.readouterr().out
        assert "best_case" in out
        assert "critical path" in out

    def test_all_modes_with_report(self, capsys):
        assert main(["analyze", "s27", "--all-modes", "--report-nets", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Best case" in out
        assert "Iterative" in out
        assert "crosstalk-critical nets" in out

    def test_overlap_window_check(self, capsys):
        assert main(["analyze", "s27", "--window-check", "overlap"]) == 0

    def test_check_hold(self, capsys):
        assert main(["analyze", "s27", "--mode", "one_step", "--check-hold"]) == 0
        out = capsys.readouterr().out
        assert (
            "hold: requirement 50 ps: MET; worst slack +41.4 ps at G7__g3/D (fall)"
            in out.splitlines()
        )

    def test_json_export(self, tmp_path, capsys):
        import json

        target = tmp_path / "out.json"
        assert main(["analyze", "s27", "--mode", "best_case", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert "best_case" in payload["modes"]
        assert payload["critical_path"]["steps"]

    def test_simulate_best_case_checks_the_quiet_scenario(self, capsys):
        assert main(
            ["analyze", "gen:s35932", "--scale", "0.01", "--mode", "best_case", "--simulate"]
        ) == 0
        out = capsys.readouterr().out
        assert "quiet aggressors" in out
        assert "aligned" not in out

    def test_simulate_static_doubled_claims_no_bound(self, capsys):
        assert main(["analyze", "s27", "--mode", "static_doubled", "--simulate"]) == 0
        assert "static_doubled claims no bound" in capsys.readouterr().out

    def test_simulate_all_modes(self, capsys):
        assert main(["analyze", "s27", "--all-modes", "--simulate"]) == 0
        out = capsys.readouterr().out
        rows = out.split("each mode's scenario:")[1].splitlines()
        validated = [row for row in rows if row.endswith("  yes")]
        assert [row[:16].strip() for row in validated] == [
            "Best case",
            "Worst case",
            "One step",
            "Iterative",
        ]
        assert "static_doubled claims no bound" in out

    def test_net_report_export(self, tmp_path, capsys):
        import json

        from repro.core.netreport import NET_REPORT_SCHEMA, validate_net_report

        target = tmp_path / "nets.json"
        assert main(
            [
                "analyze",
                "s27",
                "--mode",
                "one_step",
                "--net-report",
                str(target),
                "--top",
                "5",
            ]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == NET_REPORT_SCHEMA
        assert validate_net_report(payload) == []
        assert 0 < len(payload["nets"]) <= 5
        assert payload["design"] == "s27"


class TestBatchEngineFlags:
    def test_batch_engine_run(self, capsys):
        assert main(["analyze", "s27", "--mode", "one_step"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out

    def test_timing_report(self, capsys):
        assert main(
            [
                "analyze",
                "s27",
                "--mode",
                "one_step",
                "--timing-report",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "timing report" in out.lower()
        assert "arc cache" in out.lower()

    def test_arc_cache_roundtrip(self, tmp_path, capsys):
        cache = tmp_path / "arcs.json"
        assert main(
            ["analyze", "s27", "--mode", "one_step", "--arc-cache", str(cache)]
        ) == 0
        assert cache.exists()
        capsys.readouterr()
        # Warm run: every arc comes out of the persisted cache.
        assert main(
            [
                "analyze",
                "s27",
                "--mode",
                "one_step",
                "--arc-cache",
                str(cache),
                "--timing-report",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "persistent cache" in out.lower()


class TestObservabilityFlags:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        target = tmp_path / "trace.json"
        assert main(
            ["analyze", "s27", "--mode", "one_step", "--trace", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert "sta.run" in names
        assert "sta.pass" in names

    def test_trace_jsonl_stream(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        target = tmp_path / "trace.jsonl"
        assert main(
            ["analyze", "s27", "--mode", "one_step", "--trace", str(target)]
        ) == 0
        events = read_jsonl(str(target))
        assert events
        assert all("name" in e and "ts" in e for e in events)

    def test_metrics_writes_valid_json(self, tmp_path, capsys):
        import json

        from repro.obs import validate_metrics_payload

        target = tmp_path / "metrics.json"
        assert main(
            ["analyze", "s27", "--mode", "one_step", "--metrics", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert validate_metrics_payload(payload) == []
        assert list(payload["modes"]) == ["one_step"]
        assert "cumulative" in payload

    def test_metrics_all_modes(self, tmp_path, capsys):
        import json

        from repro.obs import validate_metrics_payload

        target = tmp_path / "metrics.json"
        assert main(["analyze", "s27", "--all-modes", "--metrics", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert validate_metrics_payload(payload) == []
        assert len(payload["modes"]) == 5

    def test_log_level_silences_info(self, tmp_path, capsys):
        assert main(
            ["--log-level", "error", "analyze", "s27", "--mode", "one_step"]
        ) == 0
        captured = capsys.readouterr()
        assert "physical design" not in captured.err
        # The report itself still lands on stdout.
        assert "critical path" in captured.out

    def test_info_logs_to_stderr(self, capsys):
        assert main(["--log-level", "info", "analyze", "s27", "--mode", "one_step"]) == 0
        captured = capsys.readouterr()
        assert "physical design" in captured.err
        assert "physical design" not in captured.out


class TestRepair:
    def test_repair_meets_clock_and_verifies_cold(self, tmp_path, capsys):
        import json

        from repro.flow import validate_repair

        target = tmp_path / "repair.json"
        argv = [
            "repair", "s27", "--clock-period", "0.78e-9",
            "--max-edits", "6", "--json", str(target),
        ]
        assert main(argv) == 0
        assert "cold verify: bit-identical" in capsys.readouterr().out
        transcript = json.loads(target.read_text())
        validate_repair(transcript)
        assert transcript["final"]["met"]

    def test_repair_without_clock_period_is_input_error(self, monkeypatch, capsys):
        from repro.service.session import Session

        def no_analysis(*_args, **_kwargs):
            raise AssertionError("repair analyzed before rejecting its input")

        monkeypatch.setattr(Session, "analyze", no_analysis)
        assert main(["repair", "s27"]) == 2
        assert "needs a clock period" in capsys.readouterr().err


class TestServeClient:
    def test_serve_client_round_trip_over_unix_socket(self, tmp_path, capsys):
        import os
        import threading
        import time

        socket_path = str(tmp_path / "svc.sock")
        trace_path = tmp_path / "serve_trace.json"
        server_exit = {}

        def run_server():
            server_exit["code"] = main(
                ["serve", "--socket", socket_path, "--trace", str(trace_path)]
            )

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 15
        while not os.path.exists(socket_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert os.path.exists(socket_path)

        address = f"unix:{socket_path}"
        assert main(["client", "--connect", address, "ping"]) == 0
        assert main(
            [
                "client",
                "--connect",
                address,
                "open_session",
                "--params",
                '{"netlist": "s27", "config": {"mode": "one_step"}}',
            ]
        ) == 0
        out = capsys.readouterr().out
        assert '"protocol": "repro.service/1"' in out
        assert '"design": "s27"' in out
        assert main(["client", "--connect", address, "shutdown"]) == 0
        thread.join(30)
        assert not thread.is_alive()
        assert server_exit["code"] == 0
        assert trace_path.exists()

    def test_client_error_maps_exit_code(self, tmp_path, capsys):
        import os
        import threading
        import time

        socket_path = str(tmp_path / "svc.sock")

        def run_server():
            main(["serve", "--socket", socket_path])

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 15
        while not os.path.exists(socket_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        address = f"unix:{socket_path}"
        # Unknown session: no CLI exit-code mapping -> generic failure 1.
        assert main(
            [
                "client",
                "--connect",
                address,
                "analyze",
                "--params",
                '{"session": "nope"}',
            ]
        ) == 1
        # Input error carries the analysis taxonomy's exit code 2.
        assert main(
            [
                "client",
                "--connect",
                address,
                "open_session",
                "--params",
                '{"netlist": "gen:s99999"}',
            ]
        ) == 2
        assert main(["client", "--connect", address, "shutdown"]) == 0
        thread.join(30)


class TestGenerate:
    def test_roundtrip_through_file(self, tmp_path, capsys):
        out_file = tmp_path / "gen.bench"
        assert main(["generate", "s38584", "--scale", "0.01", "-o", str(out_file)]) == 0
        assert main(["info", str(out_file)]) == 0

    def test_stdout_output(self, capsys):
        assert main(["generate", "s35932", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "INPUT(" in out
        assert "= DFF(" in out
