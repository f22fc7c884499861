"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.cli.loadtest import _spawn_command


def test_importing_main_module_runs_nothing():
    # Tools that import every submodule import ``repro.__main__`` too; it
    # must not parse their argv and exit.
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.__main__"],
        cwd=Path(repro.__file__).parents[1],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 7790
        assert args.socket_path is None
        assert args.max_sessions == 16
        assert args.idle_ttl_s == 600.0
        assert args.workers is None  # resolved at server start

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/repro.sock", "--max-sessions", "4",
             "--idle-ttl", "30", "--step-workers", "2", "--workers", "4"]
        )
        assert args.socket_path == "/tmp/repro.sock"
        assert args.max_sessions == 4
        assert args.idle_ttl_s == 30.0
        assert args.step_workers == 2
        assert args.workers == 4

    def test_serve_workers_zero_and_negative(self):
        assert build_parser().parse_args(["serve", "--workers", "0"]).workers == 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "-1"])

    def test_serve_ledger_defaults_and_options(self):
        args = build_parser().parse_args(["serve"])
        assert args.ledger_dir is None
        assert args.ledger_fsync == "rotate"
        assert args.ledger_retention_bytes is None
        args = build_parser().parse_args(
            [
                "serve",
                "--ledger-dir", "/tmp/led",
                "--ledger-fsync", "always",
                "--ledger-retention-bytes", "1048576",
            ]
        )
        assert args.ledger_dir == "/tmp/led"
        assert args.ledger_fsync == "always"
        assert args.ledger_retention_bytes == 1048576
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--ledger-fsync", "maybe"])

    def test_loadtest_spawn_forwards_serve_args_verbatim(self):
        # What follows `--` is the spawned server's own command line:
        # it must parse under the serve sub-parser, after the
        # loadtest's defaults, so a forwarded flag overrides them.
        parser = build_parser()
        args = parser.parse_args(
            ["loadtest", "--spawn", "--sessions", "32", "--",
             "--idle-ttl", "0.5", "--reap-interval", "0.1",
             "--ledger-dir", "soak-ledger", "--evict-to-disk",
             "--tenant-quota", "3"]
        )
        command = _spawn_command(args, "/tmp/lt.sock")
        assert command[1:4] == ["-m", "repro", "serve"]
        serve = parser.parse_args(command[3:])
        assert serve.command == "serve"
        assert serve.socket_path == "/tmp/lt.sock"
        assert (serve.max_sessions, serve.workers) == (32, 0)  # the defaults
        assert (serve.idle_ttl_s, serve.reap_interval_s) == (0.5, 0.1)
        assert (serve.ledger_dir, serve.evict_to_disk) == ("soak-ledger", True)
        assert serve.tenant_quota == 3

        overriding = parser.parse_args(
            ["loadtest", "--spawn", "--sessions", "32", "--",
             "--workers", "2", "--max-sessions", "64"]
        )
        serve = parser.parse_args(_spawn_command(overriding, "/tmp/lt.sock")[3:])
        assert (serve.max_sessions, serve.workers) == (64, 2)

        bare = parser.parse_args(["loadtest", "--spawn", "--sessions", "5"])
        assert bare.serve_args == []
        serve = parser.parse_args(_spawn_command(bare, "/tmp/lt.sock")[3:])
        assert (serve.max_sessions, serve.workers, serve.ledger_dir) == (5, 0, None)
        for removed in ("--spawn-workers", "--spawn-idle-ttl", "--spawn-ledger-dir"):
            with pytest.raises(SystemExit):
                parser.parse_args(["loadtest", "--spawn", removed, "1"])

    def test_serve_dests_are_server_keywords(self):
        import inspect

        from repro.service import ServiceServer

        accepted = set(inspect.signature(ServiceServer).parameters)
        passed = set(vars(build_parser().parse_args(["serve"]))) & accepted
        assert passed == accepted - {"ledger_segment_bytes", "ledger_retention_age_s"}

    def test_ledger_subcommands(self):
        args = build_parser().parse_args(["ledger", "list", "/tmp/led"])
        assert args.command == "ledger"
        assert args.ledger_command == "list"
        args = build_parser().parse_args(
            ["ledger", "cat", "/tmp/led", "s1", "--from-seq", "3", "--to-seq", "9"]
        )
        assert (args.session, args.from_seq, args.to_seq) == ("s1", 3, 9)
        args = build_parser().parse_args(["ledger", "replay", "/tmp/led", "s1"])
        assert args.ledger_command == "replay"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ledger"])  # subcommand required

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "gups"])
        assert args.command == "profile"
        assert args.workload == "gups"
        assert args.epochs == 8
        assert args.ibs_period == 16

    def test_tier_options(self):
        args = build_parser().parse_args(
            ["tier", "lulesh", "--policy", "oracle", "--ratio", "0.25", "--baseline"]
        )
        assert args.policy == "oracle"
        assert args.ratio == 0.25
        assert args.baseline

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "gups"],
            ["tier", "gups"],
            ["heatmap", "gups"],
            ["sweep", "gups"],
            ["record", "gups", "out.npz"],
            ["evaluate", "gups"],
        ],
    )
    def test_negative_epochs_rejected(self, argv, capsys):
        """Regression: ``--epochs -2`` used to parse (plain ``int``)."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--epochs", "-2"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert build_parser().parse_args(argv + ["--epochs", "0"]).epochs == 0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gups" in out
        assert "oracle" in out

    def test_profile_small(self, capsys):
        rc = main(["profile", "web-serving", "--epochs", "2", "--numa-maps"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 0:" in out
        assert "statistics:" in out
        assert "# pid" in out

    def test_profile_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["profile", "doom"])

    def test_profile_lwp_source(self, capsys):
        rc = main(
            ["profile", "web-serving", "--epochs", "1", "--trace-source", "pebs"]
        )
        assert rc == 0
        assert "trace=" in capsys.readouterr().out

    def test_tier_with_baseline(self, capsys):
        rc = main(
            [
                "tier",
                "web-serving",
                "--epochs",
                "2",
                "--ratio",
                "0.125",
                "--baseline",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean hitrate" in out
        assert "speedup" in out

    def test_tier_zero_epochs_with_baseline(self, capsys):
        """Regression: died with ZeroDivisionError in ``speedup_over``."""
        assert main(["tier", "gups", "--epochs", "0", "--baseline"]) == 0
        assert "speedup n/a" in capsys.readouterr().out

    def test_tier_unknown_policy(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["tier", "gups", "--policy", "vibes"])

    def test_heatmap(self, capsys):
        rc = main(["heatmap", "web-serving", "--epochs", "2", "--bins", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 3 view" in out
        assert "Fig. 4 view" in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "web-serving", "--epochs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle/combined" in out
        assert "history/abit" in out

    def test_record_then_evaluate(self, capsys, tmp_path):
        target = str(tmp_path / "run.npz")
        assert main(["record", "web-serving", "--epochs", "2", target]) == 0
        assert "recorded web-serving" in capsys.readouterr().out
        assert (
            main(["evaluate", target, "--policy", "history", "--ratio", "0.125"]) == 0
        )
        out = capsys.readouterr().out
        assert "hitrate=" in out

    def test_ledger_list_and_cat(self, capsys, tmp_path):
        from repro.ledger import Ledger
        from repro.service.protocol import encode_payload

        ledger = Ledger(tmp_path)
        session = ledger.create_session(
            "s1", {"workload": "gups", "epochs": 2}, info={"tier1_capacity": 64}
        )
        for epoch, hitrate in ((0, 0.5), (1, 0.6)):
            session.append_many(
                [("epoch", encode_payload({"epoch": epoch, "hitrate": hitrate}))]
            )
        session.close()

        assert main(["ledger", "list", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "s1: workload=gups" in out
        assert "seq=[0, 2)" in out

        assert main(["ledger", "cat", str(tmp_path), "s1", "--from-seq", "1"]) == 0
        import json

        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["seq"] == 1
        assert record["data"]["hitrate"] == 0.6

    def test_ledger_cat_missing_session(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["ledger", "cat", str(tmp_path), "nope"])

    def test_evaluate_unknown_policy(self, tmp_path):
        target = str(tmp_path / "run.npz")
        main(["record", "web-serving", "--epochs", "1", target])
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["evaluate", target, "--policy", "psychic"])
