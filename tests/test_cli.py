"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ServeError, SpecError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "9", "info"])
        assert args.seed == 9
        assert args.command == "info"

    def test_filter_model_args(self):
        args = build_parser().parse_args(
            ["filter-model", "--fruitful", "0.02", "--tpr", "0.5", "--fpr", "0.1"]
        )
        assert args.fruitful == 0.02

    def test_all_commands_registered(self):
        from repro.cli import _COMMANDS

        extra_args = {
            "train": ["--epochs", "1"],
            "report": ["trace.jsonl"],
            "serve": ["status", "--socket", "/tmp/repro.sock"],
            "fleet": ["run"],
            "top": ["heartbeat.json"],
            "learn": ["publish", "--registry", "reg", "--model", "m.npz"],
        }
        parser = build_parser()
        for command in _COMMANDS:
            args = parser.parse_args([command] + extra_args.get(command, []))
            assert args.command == command

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_trace_and_metrics_flags(self):
        args = build_parser().parse_args(
            ["--trace", "out.jsonl", "--metrics", "info"]
        )
        assert args.trace == "out.jsonl"
        assert args.metrics is True

    def test_telemetry_off_by_default(self):
        args = build_parser().parse_args(["info"])
        assert args.trace is None
        assert args.metrics is False


class TestCommands:
    def test_info(self, capsys):
        assert main(["--seed", "3", "info"]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out
        assert "injected concurrency bugs" in out

    def test_fuzz(self, capsys):
        assert main(["--seed", "3", "fuzz", "--rounds", "40"]) == 0
        out = capsys.readouterr().out
        assert "corpus:" in out
        assert "coverage" in out

    def test_filter_model(self, capsys):
        assert main(["filter-model"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_filter_model_deterministic(self, capsys):
        main(["filter-model"])
        first = capsys.readouterr().out
        main(["filter-model"])
        second = capsys.readouterr().out
        assert first == second

    def test_metrics_flag_prints_summary(self, capsys):
        assert main(["--metrics", "--seed", "3", "fuzz", "--rounds", "10"]) == 0
        out = capsys.readouterr().out
        assert "corpus:" in out
        assert "telemetry metrics summary" in out
        assert "corpus.grow" in out

    def test_command_output_identical_with_telemetry(self, capsys, tmp_path):
        """--trace/--metrics must not change what a command computes."""
        main(["--seed", "3", "fuzz", "--rounds", "15"])
        baseline = capsys.readouterr().out
        trace = str(tmp_path / "t.jsonl")
        main(["--trace", trace, "--seed", "3", "fuzz", "--rounds", "15"])
        traced = capsys.readouterr().out
        assert traced == baseline

    def test_report_missing_trace_file(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read trace file" in capsys.readouterr().err

    def test_report_non_json_trace_file(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("this is not json\n")
        assert main(["report", str(garbage)]) == 2
        assert "not a JSON-lines telemetry trace" in capsys.readouterr().err

    def test_trace_to_unwritable_path(self, capsys, tmp_path):
        bad = str(tmp_path / "no-such-dir" / "t.jsonl")
        assert main(["--trace", bad, "--seed", "3", "fuzz", "--rounds", "5"]) == 2
        assert "cannot open trace file" in capsys.readouterr().err


class TestRobustness:
    """CLI-level resilience behaviour (see docs/ROBUSTNESS.md)."""

    def test_train_unwritable_out_fails_fast(self, capsys, tmp_path):
        # The destination is probed before training starts, so this is
        # cheap: no model is ever built.
        bad = str(tmp_path / "no-such-dir" / "model.npz")
        assert main(["train", "--out", bad]) == 2
        assert "cannot write checkpoint" in capsys.readouterr().err

    def test_campaign_journal_and_resume_are_exclusive(self, capsys, tmp_path):
        code = main(
            [
                "campaign",
                "--journal",
                str(tmp_path / "a.journal"),
                "--resume",
                str(tmp_path / "b.journal"),
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_campaign_resume_missing_journal(self, capsys, tmp_path):
        code = main(["campaign", "--resume", str(tmp_path / "missing.journal")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_campaign_bad_fault_spec(self, capsys):
        assert main(["campaign", "--inject-faults", "frobnicate:0.5"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_campaign_degrades_on_unusable_model(self, capsys, tmp_path):
        garbage = tmp_path / "model.npz"
        garbage.write_bytes(b"not a checkpoint")
        assert main(["--seed", "3", "campaign", "--ctis", "1", "--model", str(garbage)]) == 0
        captured = capsys.readouterr()
        assert "unusable" in captured.err
        assert "continuing with the PCT baseline" in captured.err
        # the campaign ran PCT-only: no MLPCT curve in the output
        assert "PCT" in captured.out
        assert "MLPCT" not in captured.out

    def test_campaign_capture_labels_requires_journal(self, capsys):
        assert main(["campaign", "--capture-labels"]) == 2
        assert "--capture-labels needs a journal" in capsys.readouterr().err

    def test_quality_model_requires_registry(self, capsys):
        assert main(["quality", "--model", "v1"]) == 2
        assert "--model and --registry" in capsys.readouterr().err

    def test_quality_model_conflicts_with_write_baseline(self, capsys, tmp_path):
        code = main(
            [
                "quality",
                "--model",
                "v1",
                "--registry",
                str(tmp_path),
                "--write-baseline",
                str(tmp_path / "baseline.json"),
            ]
        )
        assert code == 2
        assert "cannot be combined with --model" in capsys.readouterr().err

    def test_top_without_state(self, capsys, tmp_path):
        assert main(["top", str(tmp_path)]) == 0
        assert "(no heartbeat)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "status", "--dir", "X"],
            ["learn", "status", "--dir", "X"],
            ["top", "--fleet", "X"],
        ],
    )
    def test_deleted_status_views_refused(self, argv, capsys, monkeypatch):
        import repro.cli as cli

        def ran(*args, **kwargs):
            raise AssertionError("a refused command ran")

        for command in ("fleet", "learn", "top"):
            monkeypatch.setitem(cli._COMMANDS, command, ran)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_learn_publish_missing_checkpoint(self, capsys, tmp_path):
        code = main(
            [
                "learn",
                "publish",
                "--registry",
                str(tmp_path / "registry"),
                "--model",
                str(tmp_path / "missing.npz"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_learn_run_corrupt_registry_manifest(self, capsys, tmp_path):
        registry = tmp_path / "registry"
        registry.mkdir()
        (registry / "manifest.json").write_text("not json")
        learn = str(tmp_path / "learn")
        code = main(["learn", "run", "--dir", learn, "--registry", str(registry)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: unreadable registry manifest" in err
        assert "Traceback" not in err

    def test_learn_run_corrupt_label_store(self, capsys, tmp_path):
        learn = tmp_path / "learn"
        learn.mkdir()
        (learn / "labels.jsonl").write_text("not a record\nnor this\n")
        registry = str(tmp_path / "registry")
        code = main(["learn", "run", "--dir", str(learn), "--registry", registry])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: corrupt journal record at line 1" in err
        assert "Traceback" not in err

    def test_serve_status_without_server(self, capsys, tmp_path):
        assert main(["serve", "status", "--socket", str(tmp_path / "none.sock")]) == 2
        captured = capsys.readouterr()
        assert "error: cannot reach prediction server" in captured.err
        assert captured.out == ""


class TestOneErrorExit:
    """``main`` is the one place a command fails: whatever ``ReproError``
    or ``OSError`` a command raises is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "error",
        [SpecError("refused"), ServeError("refused"), OSError("refused")],
        ids=lambda error: type(error).__name__,
    )
    def test_a_raised_error_is_one_line_and_exit_2(self, error, capsys, monkeypatch):
        import repro.cli as cli

        def failing(args):
            print("partial output")
            raise error

        monkeypatch.setitem(cli._COMMANDS, "info", failing)
        assert main(["info"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: refused\n"
        assert captured.out == "partial output\n"

    def test_other_exceptions_still_propagate(self, monkeypatch):
        import repro.cli as cli

        def buggy(args):
            raise KeyError("a bug, not a refusal")

        monkeypatch.setitem(cli._COMMANDS, "info", buggy)
        with pytest.raises(KeyError):
            main(["info"])
