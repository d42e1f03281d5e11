"""The command-line mini-app runner."""

import pytest

from repro.bench import GROUPS
from repro.cli import _COMMANDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_coord_single_and_triple(self):
        args = build_parser().parse_args(
            ["cmtbone", "--local", "8", "--proc", "2,2,1"]
        )
        assert args.local == 8
        assert args.proc == (2, 2, 1)

    def test_bad_coord(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cmtbone", "--local", "1,2"])

    def test_machine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cmtbone", "--machine", "cray-1"])

    def test_bench_groups_are_the_runners(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        assert "{" + ",".join(GROUPS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_every_subcommand_parses(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {command}")

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = {
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("    ") and line[4] != " "
        }
        assert listed == set(_COMMANDS) and len(listed) == 13


class TestArgumentRanges:
    """Out-of-range values end in one line on stderr and exit 2, not
    in a traceback or a run that pretends to work."""

    @pytest.mark.parametrize("argv, flag", [
        (["kernels", "--elements", "0"], "--elements"),
        (["cmtbone", "--ranks", "0"], "--ranks"),
        (["cmtbone", "-N", "1"], "-N/--points"),
        (["cmtbone", "--steps", "-3"], "--steps"),
        (["cmtbone", "--local", "0,1,1"], "--local"),
        (["sod", "-N", "1"], "-N/--points"),
        (["sod", "--steps", "-2"], "--steps"),
        (["sod", "--checkpoint-every", "-3"], "--checkpoint-every"),
        (["sod", "--elements", "0"], "--elements"),
        (["kernels", "-N", "1"], "-N/--points"),
        (["kernels", "--steps", "-5"], "--steps"),
        (["nekbone", "--iterations", "-1"], "--iterations"),
        (["validate", "--steps", "-1"], "--steps"),
        (["vscale", "--steps", "-1"], "--steps"),
        (["vscale", "-N", "1"], "-N/--points"),
        (["cmtbone", "--imbalance", "-3"], "--imbalance"),
        (["sod", "--imbalance", "-2"], "--imbalance"),
        (["vscale", "--imbalance", "nan"], "--imbalance"),
        (["campaign", "--workers", "0"], "--workers"),
        (["serve", "--spool", "unused", "--workers", "0"], "--workers"),
        (["sod", "--lb", "auto", "--lb-threshold", "0.5"], "--lb-threshold"),
        (["cmtbone", "--lb", "auto", "--lb-threshold", "0.5"],
         "--lb-threshold"),
        (["vscale", "--mtbf", "-5"], "--mtbf"),
        (["campaign", "--batch-max", "0"], "--batch-max"),
        (["campaign", "--count", "-1"], "--count"),
        (["campaign", "--quota", "0"], "--quota"),
        (["serve", "--spool", "unused", "--batch-max", "0"], "--batch-max"),
    ], ids=["elements-0", "ranks-0", "points-1", "steps-negative",
            "local-0", "sod-points-1", "sod-steps-negative",
            "sod-checkpoint-every-negative", "sod-elements-0",
            "kernels-points-1", "kernels-steps-negative",
            "nekbone-iterations-negative", "validate-steps-negative",
            "vscale-steps-negative", "vscale-points-1",
            "imbalance-negative", "sod-imbalance-negative",
            "vscale-imbalance-nan", "campaign-workers-0",
            "serve-workers-0", "sod-lb-threshold-below-1",
            "cmtbone-lb-threshold-below-1", "vscale-mtbf-negative",
            "campaign-batch-max-0", "campaign-count-negative",
            "campaign-quota-0", "serve-batch-max-0"])
    def test_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: argument {flag}: " in err

    @pytest.mark.parametrize("argv", [
        ["cmtbone", "--lb", "every", "--lb-every", "-2"],
        ["sod", "--lb", "every", "--lb-every", "0"],
    ], ids=["cmtbone-lb-every-negative", "sod-lb-every-0"])
    def test_lb_every_needs_a_cadence(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error: argument --lb-every: --lb every needs a " \
            "cadence >= 1, got " in err

    @pytest.mark.parametrize("argv, message", [
        (["--dt", "-1"], "--dt: dt must be finite and > 0, got -1.0"),
        (["--dt", "0", "--verify"],
         "--dt: dt must be finite and > 0, got 0.0"),
        (["--dt", "nan"], "--dt: dt must be finite and > 0, got nan"),
        (["--fault-spec", "crash:rank=5,step=1", "--verify"],
         "--fault-spec: fault event 'crash:rank=5,step=1' names a rank "
         "outside [0, 2)"),
    ], ids=["dt-negative", "dt-zero", "dt-nan", "crash-rank-outside"])
    def test_sod_rejects(self, argv, message, capsys):
        rc = main(["sod", "--ranks", "2", "--steps", "2", *argv])
        assert rc == 2
        assert capsys.readouterr().err == message + "\n"


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "compton" in out
        assert "opteron6378" in out

    def test_cmtbone_small(self, capsys):
        rc = main([
            "cmtbone", "--ranks", "4", "-N", "5", "--local", "2,1,1",
            "--steps", "2", "--gs-method", "pairwise", "--proxy",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chosen gs method: pairwise" in out
        assert "ax_" in out
        assert "MPI profile" in out

    def test_cmtbone_autotune_and_pack(self, capsys):
        rc = main([
            "cmtbone", "--ranks", "4", "-N", "5", "--local", "2,1,1",
            "--steps", "1", "--proxy", "--pack",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gs auto-tune:" in out
        assert "pairwise exchange" in out

    def test_cmtbone_report_is_the_same_under_every_backend_name(
        self, capsys
    ):
        """``procs`` names the local socket mesh: its report equals the
        ``sockets`` and the thread-rank one, byte for byte."""
        outs = {}
        for backend in ("threads", "procs", "sockets"):
            assert main([
                "cmtbone", "--ranks", "2", "-N", "4", "--local", "2,1,1",
                "--steps", "3", "--backend", backend,
            ]) == 0
            outs[backend] = capsys.readouterr().out
        assert outs["procs"] == outs["threads"]
        assert outs["sockets"] == outs["threads"]

    def test_sod_crash_recovery_verifies_under_the_procs_name(
        self, tmp_path, capsys
    ):
        """An injected rank crash on ``procs`` is replayed from the last
        checkpoint, and the final fields equal a fault-free run's."""
        assert main([
            "sod", "--ranks", "2", "--steps", "8", "--backend", "procs",
            "--fault-spec", "crash:rank=1,step=5", "--checkpoint-every", "3",
            "--checkpoint-dir", str(tmp_path), "--verify",
        ]) == 0
        assert "VERIFY OK" in capsys.readouterr().out

    def test_nekbone_small(self, capsys):
        rc = main([
            "nekbone", "--ranks", "2", "-N", "5", "--local", "2,1,1",
            "--iterations", "30", "--gs-method", "pairwise",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CG iterations:" in out
        assert "residual:" in out

    def test_fig7_small(self, capsys):
        rc = main([
            "fig7", "--ranks", "4", "-N", "5", "--local", "2,1,1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CMT-bone" in out and "Nekbone" in out
        assert "crystal router" in out

    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "raises"])
    def test_sod_removes_the_checkpoint_dir_it_made(
        self, fails, tmp_path, monkeypatch, capsys
    ):
        """``--checkpoint-every`` without ``--checkpoint-dir`` writes into
        a temporary directory that is gone when the command returns or
        raises; a directory the caller named stays."""
        import tempfile

        import repro.solver

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        if fails:
            def broken(*args, **kwargs):
                raise RuntimeError("campaign failed")

            monkeypatch.setattr(repro.solver, "run_with_recovery", broken)
        argv = ["sod", "--ranks", "2", "--elements", "4", "-N", "4",
                "--steps", "4", "--checkpoint-every", "2"]
        if fails:
            with pytest.raises(RuntimeError, match="campaign failed"):
                main(argv)
        else:
            assert main(argv) == 0
        made = capsys.readouterr().out.split("checkpoint dir: ")[1].split()[0]
        assert made.startswith(str(tmp_path))
        assert list(tmp_path.iterdir()) == []
        if not fails:
            kept = tmp_path / "kept"
            assert main(argv + ["--checkpoint-dir", str(kept)]) == 0
            assert any(kept.iterdir())


class TestValidateCommand:
    def test_validate_runs(self, capsys):
        rc = main([
            "validate", "--ranks", "4", "-N", "5", "--local", "2,1,1",
            "--steps", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OVERALL" in out
        assert "uncalibrated" in out

    def test_validate_calibrated(self, capsys):
        rc = main([
            "validate", "--ranks", "4", "-N", "5", "--local", "2,1,1",
            "--steps", "2", "--calibrated",
        ])
        assert rc == 0
        assert "calibrated" in capsys.readouterr().out


class TestKernelsCommand:
    def test_kernels_table(self, capsys):
        rc = main(["kernels"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dudt" in out
        assert "2.31x" in out or "speedups" in out
