"""Tests for the command-line interface and log file round-trips."""

from __future__ import annotations

import json

import pytest

from repro import MPCAlgorithm, SessionConfig, SessionLog, StreamingSession, constant_trace
from repro.cli import build_parser, main
from repro.video import short_video


class TestLogFileIO:
    def test_save_load_round_trip(self, tmp_path):
        video = short_video(duration_s=60.0, seed=1)
        log = StreamingSession(
            video, MPCAlgorithm(), constant_trace(5.0, 600.0), SessionConfig()
        ).run()
        path = tmp_path / "session.json"
        log.save(path)
        restored = SessionLog.load(path)
        assert restored.n_chunks == log.n_chunks
        assert restored.records[3] == log.records[3]
        assert restored.abr_name == log.abr_name

    def test_saved_file_is_json(self, tmp_path):
        video = short_video(duration_s=60.0, seed=1)
        log = StreamingSession(
            video, MPCAlgorithm(), constant_trace(5.0, 600.0), SessionConfig()
        ).run()
        path = tmp_path / "session.json"
        log.save(path)
        data = json.loads(path.read_text())
        assert "records" in data
        assert len(data["records"]) == log.n_chunks


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--traces", "2", "--out", "/tmp/x"]
        )
        assert args.command == "simulate"
        assert args.traces == 2

    def test_counterfactual_query_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["counterfactual", "--query", "nope"])

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--samples", "0"),
            ("--traces", "0"),
            ("--max-retries", "-1"),
            ("--shard-timeout", "0"),
            ("--duration-s", "-5"),
            ("--duration-s", "0"),
            ("--buffer-s", "0"),
            ("--duration-s", "inf"),
            ("--buffer-s", "inf"),
            ("--shard-timeout", "inf"),
            ("--seed", "-1"),
        ],
    )
    def test_counterfactual_numeric_flags_are_usage_errors(
        self, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["counterfactual", flag, value])
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert flag in errors[0]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--out", "logs", "--traces", "-1"], "--traces"),
            (["simulate", "--out", "logs", "--duration-s", "0"], "--duration-s"),
            (["abduct", "session.json", "--samples", "0"], "--samples"),
            (["simulate", "--out", "logs", "--duration-s", "inf"], "--duration-s"),
            (["simulate", "--out", "logs", "--seed", "-1"], "--seed"),
            (["abduct", "session.json", "--seed", "-1"], "--seed"),
        ],
    )
    def test_simulate_and_abduct_numeric_flags_are_usage_errors(
        self, argv, flag, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert flag in errors[0]

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_validate_window_is_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "trace.mahi", "--window-s", value])
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert "--window-s" in errors[0]

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file"),
            ("not json", "not JSON"),
            ('{"abr_name": "mpc"}', "no 'records' field"),
            (
                '{"abr_name": "mpc", "buffer_capacity_s": 30.0, '
                '"chunk_duration_s": 4.0, "rtt_s": 0.08, "startup_time_s": 0.0, '
                '"total_rebuffer_s": 0.0, "records": []}',
                "no chunks",
            ),
        ],
        ids=["missing", "not-json", "no-records", "no-chunks"],
    )
    def test_abduct_bad_log_is_usage_error(self, content, reason, tmp_path, capsys):
        path = tmp_path / "session.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["abduct", str(path)])
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert "argument log" in errors[0]
        assert reason in errors[0]


class TestEndToEnd:
    def test_simulate_then_abduct(self, tmp_path, capsys):
        out = tmp_path / "logs"
        rc = main([
            "simulate", "--traces", "1", "--duration-s", "200",
            "--out", str(out),
        ])
        assert rc == 0
        files = sorted(out.glob("session_*.json"))
        assert len(files) == 1

        trace_out = tmp_path / "traces.json"
        rc = main([
            "abduct", str(files[0]), "--samples", "2", "--out", str(trace_out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "log-likelihood" in captured
        payload = json.loads(trace_out.read_text())
        assert len(payload["samples"]) == 2
        assert "map" in payload

    def test_counterfactual_command(self, capsys):
        rc = main([
            "counterfactual", "--query", "bba", "--traces", "2",
            "--duration-s", "300", "--samples", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Counterfactual:" in out
        assert "mean_ssim" in out
