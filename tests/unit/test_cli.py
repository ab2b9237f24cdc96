"""Tests for the repro CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.pipeline.registry import EXPERIMENTS


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.experiment == "table2"
        assert args.scale == "fast"
        assert args.seed == 7

    def test_run_all_accepted(self):
        args = build_parser().parse_args(["run", "all"])
        assert args.experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table42"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", "--scale", "huge"])

    def test_json_flag(self):
        args = build_parser().parse_args(["run", "table2", "--json"])
        assert args.json is True
        assert build_parser().parse_args(["run", "table2"]).json is False

    def test_fit_save_command(self):
        args = build_parser().parse_args(
            ["fit-save", "compas", "--out", "/tmp/a", "--n-prototypes", "5"]
        )
        assert args.command == "fit-save"
        assert args.dataset == "compas"
        assert args.n_prototypes == 5
        assert args.criterion == "parity"

    def test_fit_save_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit-save", "compas"])

    def test_serve_command(self):
        args = build_parser().parse_args(
            ["serve", "--artifact", "/tmp/a", "--port", "9000"]
        )
        assert args.command == "serve"
        assert args.port == 9000
        assert args.batch_size == 256
        assert args.online_refit is False

    def test_serve_online_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--artifact", "/tmp/a", "--workers", "2",
                "--online-refit", "--refresh-window", "128",
                "--drift-policy", "both", "--refit-cooldown", "5.0",
            ]
        )
        assert args.online_refit is True
        assert args.refresh_window == 128
        assert args.drift_policy == "both"
        assert args.refit_cooldown == 5.0

    def test_serve_rejects_bogus_drift_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--artifact", "/tmp/a", "--drift-policy", "bogus"]
            )


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_run_motivation(self, capsys):
        assert main(["run", "table1", "--seed", "3"]) == 0
        assert "Brand Strategist" in capsys.readouterr().out

    def test_run_json_emits_machine_readable_report(self, capsys):
        assert main(["run", "table2", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "dataset_statistics"
        assert {r["dataset"] for r in payload["rows"]} >= {"compas", "census"}

    def test_run_json_motivation(self, capsys):
        assert main(["run", "table1", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "motivation"
        assert payload["rows"]


class TestServingCommands:
    def test_fit_save_then_serve_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "artifact")
        code = main(
            [
                "fit-save",
                "credit",
                "--out",
                out,
                "--records",
                "120",
                "--n-prototypes",
                "3",
                "--max-iter",
                "15",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        assert "saved credit serving artifact" in capsys.readouterr().out

        from repro.serving import InferenceEngine, InProcessClient, load_artifact

        engine = InferenceEngine(load_artifact(out))
        client = InProcessClient(engine)
        assert client.health()["metadata"]["dataset"] == "credit"
        n = engine.artifact.n_features
        scores = client.score([[0.0] * n, [1.0] * n])
        assert len(scores) == 2

    def test_serve_unknown_artifact_errors(self, tmp_path, capsys):
        assert main(["serve", "--artifact", str(tmp_path / "missing")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_online_knobs_without_online_refit_error(self, capsys):
        code = main(
            ["serve", "--artifact", "/tmp/a", "--refresh-window", "128"]
        )
        assert code == 1
        assert "--online-refit" in capsys.readouterr().err

    def test_online_refit_needs_multiple_workers(self, tmp_path, capsys):
        out = str(tmp_path / "artifact")
        assert main(
            [
                "fit-save", "credit", "--out", out, "--records", "120",
                "--n-prototypes", "3", "--max-iter", "15", "--seed", "3",
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            ["serve", "--artifact", out, "--workers", "1", "--online-refit"]
        )
        assert code == 1
        assert "workers" in capsys.readouterr().err


class TestPairModeFlags:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.pair_mode == "auto"

    def test_run_landmark_flags(self, capsys):
        """The retired landmark pair mode is rejected, naming the
        supported modes."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "table2", "--pair-mode", "landmark"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'landmark'" in err
        assert "'auto', 'full', 'sampled'" in err

    def test_fit_save_landmark_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fit-save", "compas", "--out", "x", "--pair-mode", "landmark"]
            )
        assert "'auto', 'full', 'sampled'" in capsys.readouterr().err

    def test_invalid_pair_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", "--pair-mode", "bogus"])

    def test_flags_reach_the_config(self):
        from repro.cli import _config

        args = build_parser().parse_args(["run", "table2", "--pair-mode", "full"])
        assert _config(args).pair_mode == "full"

    def test_landmark_flags_without_landmark_mode_rejected(self, capsys, tmp_path):
        """The anchor flags went with the landmark mode."""
        for argv in (
            ["run", "table2", "--landmarks", "8"],
            ["run", "table2", "--landmark-method", "farthest"],
            ["fit-save", "credit", "--out", str(tmp_path / "a"), "--landmarks", "8"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
            assert "unrecognized arguments" in capsys.readouterr().err


class TestTuningFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.tune_strategy == "exhaustive"
        assert args.tune_promote == "rank"

    def test_run_tuning_flags_reach_the_config(self):
        from repro.cli import _config

        args = build_parser().parse_args(
            [
                "run",
                "table2",
                "--tune-strategy",
                "halving",
                "--tune-promote",
                "extrapolate",
            ]
        )
        config = _config(args)
        assert config.tune_strategy == "halving"
        assert config.tune_promote == "extrapolate"

    def test_default_flags_leave_config_defaults(self):
        from repro.cli import _config

        config = _config(build_parser().parse_args(["run", "table2"]))
        assert config.tune_strategy == "exhaustive"
        assert config.tune_promote == "rank"

    def test_pool_flag_is_gone(self, capsys, tmp_path):
        """Every pool lives as long as its parallel section: no knob."""
        for argv in (
            ["run", "table2", "--pool", "session"],
            ["fit-save", "credit", "--out", str(tmp_path / "a"), "--pool", "per-call"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_fit_save_accepts_tuning_flags(self):
        args = build_parser().parse_args(
            [
                "fit-save",
                "compas",
                "--out",
                "x",
                "--tune",
                "--tune-strategy",
                "halving",
                "--tune-promote",
                "extrapolate",
            ]
        )
        assert args.tune and args.tune_strategy == "halving"
        assert args.tune_promote == "extrapolate"
