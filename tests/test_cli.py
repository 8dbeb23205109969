"""Tests for the command-line interface."""

import pytest

from repro.cli import build_arg_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args([])

    def test_check_defaults(self):
        args = build_arg_parser().parse_args(["check"])
        assert args.module == "hal.dll"
        assert args.vms == 6
        assert args.hash == "md5"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["explode"])


class TestCheck:
    def test_clean_pool_exit_zero(self, capsys):
        rc = main(["check", "--module", "hal.dll", "--vms", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CLEAN" in out and "FLAGGED" not in out

    def test_infected_pool_exit_one(self, capsys):
        rc = main(["check", "--vms", "5", "--infect", "E1",
                   "--victim", "Dom2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FLAGGED" in out
        assert ".text" in out

    def test_experiment_dictates_module(self, capsys):
        rc = main(["check", "--module", "hal.dll", "--vms", "4",
                   "--infect", "E3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "dummy.sys" in out
        assert "IMAGE_DOS_HEADER" in out

    def test_hash_option(self, capsys):
        rc = main(["check", "--vms", "4", "--hash", "sha256"])
        assert rc == 0
        assert "sha256" in capsys.readouterr().out

    def test_rva_mode_option(self, capsys):
        rc = main(["check", "--vms", "4", "--rva-mode", "faithful"])
        assert rc == 0


class TestSweep:
    def test_clean_sweep(self, capsys):
        rc = main(["sweep", "--vms", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hal.dll" in out and "http.sys" in out

    def test_infected_sweep_nonzero(self, capsys):
        rc = main(["sweep", "--vms", "4", "--infect", "E2",
                   "--victim", "Dom2"])
        assert rc == 1


class TestHidden:
    def test_no_hidden(self, capsys):
        rc = main(["hidden", "--vms", "2"])
        assert rc == 0
        assert "no hidden modules" in capsys.readouterr().out

    def test_hidden_demo(self, capsys):
        rc = main(["hidden", "--vms", "3", "--hide", "dummy.sys",
                   "--victim", "Dom2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "HIDDEN module" in out
        assert "dummy.sys" in out


class TestDaemon:
    def test_quiet_daemon(self, capsys):
        rc = main(["daemon", "--vms", "3", "--cycles", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "quiet" in out

    def test_infected_daemon(self, capsys):
        rc = main(["daemon", "--vms", "4", "--cycles", "4",
                   "--infect", "E1", "--victim", "Dom2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "hal.dll" in out


class TestExperiment:
    def test_single_experiment(self, capsys):
        rc = main(["experiment", "e3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stub-modification" in out

    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "e99"])
        assert rc == 2


class TestCrossView:
    def test_clean(self, capsys):
        rc = main(["crossview", "--vms", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 hidden, 0 decoy" in out

    def test_hidden_and_decoy(self, capsys):
        rc = main(["crossview", "--vms", "3", "--hide", "dummy.sys",
                   "--decoy", "--victim", "Dom2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 hidden, 1 decoy" in out
        assert "ghost.sys" in out


class TestPoolMode:
    def test_canonical_mode(self, capsys):
        rc = main(["check", "--vms", "5", "--pool-mode", "canonical",
                   "--infect", "E1", "--victim", "Dom2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FLAGGED" in out


class TestDump:
    def test_offline_check_clean(self, capsys):
        rc = main(["dump", "--vms", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "offline cross-check" in out

    def test_offline_check_infected(self, capsys):
        rc = main(["dump", "--vms", "4", "--infect", "E1",
                   "--victim", "Dom2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FLAGGED" in out


class TestFleet:
    """The fleet health check's OK/WARN/CRITICAL/UNKNOWN contract."""

    def test_clean_fleet_exit_zero(self, capsys):
        rc = main(["fleet", "--vms", "12", "--shard-size", "4",
                   "--cycles", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet OK" in out
        assert "shard(s)" in out

    def test_killswitch_short_circuits_to_ok(self, capsys):
        rc = main(["fleet", "--vms", "12", "--killswitch"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "killswitch active" in out
        assert "cycle" not in out           # no checks ran

    def test_tampered_fleet_exit_two(self, capsys):
        rc = main(["fleet", "--vms", "12", "--shard-size", "4",
                   "--cycles", "2", "--infect", "E1",
                   "--victim", "Dom3"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "fleet CRITICAL" in out
        assert "Dom3" in out

    def test_degraded_fleet_exit_one(self, capsys):
        rc = main(["fleet", "--vms", "12", "--shard-size", "4",
                   "--cycles", "2", "--fault-rate", "0.35",
                   "--retry", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "fleet WARN" in out

    def test_churned_event_fleet_writes_metrics(self, tmp_path, capsys):
        """Every shard checker used to ``set_to`` its own cumulative
        manifest totals on the shared series; under churn a smaller
        shard published after a larger one and the run died with
        "counter ... went backwards". Churn degrades migrating VMs, so
        the contract answer is WARN (1), returned rather than raised."""
        path = tmp_path / "m.prom"
        rc = main(["fleet", "--vms", "48", "--shard-size", "12",
                   "--cycles", "12", "--event-driven",
                   "--churn-rate", "0.2", "--metrics-out", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "fleet WARN" in out and "0 integrity" in out
        text = path.read_text()
        for series in ("modchecker_manifest_hits_total",
                       "modchecker_manifest_misses_total",
                       "modchecker_trap_validations_total",
                       "modchecker_pair_replays_total"):
            assert series in text

    def test_bad_sink_exit_three(self, capsys):
        rc = main(["fleet", "--vms", "12", "--sink", "carrier-pigeon"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "fleet UNKNOWN" in err

    def test_sink_opts_validated_before_any_work(self, capsys):
        rc = main(["fleet", "--vms", "12", "--sink", "jsonl"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "path=" in captured.err
        assert "cycle" not in captured.out

    def test_stdout_sink_emits_record(self, capsys):
        import json
        rc = main(["fleet", "--vms", "12", "--shard-size", "4",
                   "--cycles", "1", "--sink", "stdout"])
        out = capsys.readouterr().out
        record = next(json.loads(line) for line in out.splitlines()
                      if line.startswith("{"))
        assert rc == 0
        assert record["check"] == "modchecker-fleet"
        assert record["status"] == "OK"
        assert record["exit_code"] == 0
        assert record["vm_checks_total"] > 0

    def test_jsonl_sink_writes_file(self, tmp_path):
        import json
        path = tmp_path / "fleet.jsonl"
        rc = main(["fleet", "--vms", "12", "--shard-size", "4",
                   "--cycles", "1", "--sink", "jsonl",
                   "--sink-opts", f"path={path}"])
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert rc == 0
        assert len(rows) == 1 and rows[0]["status"] == "OK"

    def test_prometheus_sink_writes_fleet_series(self, tmp_path):
        path = tmp_path / "fleet.prom"
        rc = main(["fleet", "--vms", "12", "--shard-size", "4",
                   "--cycles", "1", "--sink", "prometheus",
                   "--sink-opts", f"path={path}"])
        text = path.read_text()
        assert rc == 0
        assert "modchecker_fleet_vm_checks_total" in text


def _usage_error(argv: list[str], capsys) -> str:
    """Run ``argv``; assert it is a usage error (exit 2), return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestUsageErrors:
    """Out-of-range values fail at parse time with exit 2, naming the
    flag, on every subcommand (fleet too: argparse's status)."""

    @pytest.mark.parametrize("argv, flag", [
        (["check", "--fault-rate", "2"], "--fault-rate"),
        (["check", "--fault-rate", "abc"], "--fault-rate"),
        (["fleet", "--fault-rate", "-0.1"], "--fault-rate"),
        (["daemon", "--churn-rate", "3"], "--churn-rate"),
        (["fleet", "--churn-rate", "3"], "--churn-rate"),
        (["chaos", "--churn-rate", "0"], "--churn-rate"),
        (["check", "--recheck-ttl", "0"], "--recheck-ttl"),
        (["daemon", "--recheck-ttl", "-5"], "--recheck-ttl"),
        (["check", "--repair-attempts", "0"], "--repair-attempts"),
        (["fleet", "--repair-attempts", "0"], "--repair-attempts"),
        (["fleet", "--workers", "0"], "--workers"),
        (["fleet", "--shard-size", "0"], "--shard-size"),
        (["fleet", "--interval", "0"], "--interval"),
        (["daemon", "--interval", "0"], "--interval"),
        (["chaos", "--interval", "-1"], "--interval"),
        (["check", "--vms", "0"], "--vms"),
        (["fleet", "--vms", "0"], "--vms"),
        (["chaos", "--vms", "0"], "--vms"),
        (["hidden", "--vms", "0"], "--vms"),
        (["profile", "--vms", "0"], "--vms"),
    ])
    def test_out_of_range_is_usage_error(self, argv, flag, capsys):
        err = _usage_error(argv, capsys)
        assert f"argument {flag}" in err

    def test_no_batch_is_gone(self, capsys):
        assert "--no-batch" in _usage_error(
            ["check", "--vms", "3", "--no-batch"], capsys)


class TestFlagsHonoured:
    """Every flag a subcommand accepts takes effect."""

    def test_sweep_writes_evidence(self, tmp_path, capsys):
        rc = main(["sweep", "--vms", "4", "--infect", "E1",
                   "--evidence-out", str(tmp_path)])
        assert rc == 1
        assert sorted(p.name for p in tmp_path.iterdir())
        assert "(forensics) captured" in capsys.readouterr().out

    def test_explain_writes_evidence(self, tmp_path, capsys):
        rc = main(["explain", "--vms", "4", "--infect", "E1",
                   "--evidence-out", str(tmp_path)])
        assert rc == 1
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 1 and names[0].startswith("incident-0001")
        assert "(forensics) captured 1" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--retry", "5"], ["--incremental"], ["--event-driven"],
        ["--recheck-ttl", "5"], ["--evidence-out", "unused"],
        ["--no-batch"], ["--repair"],
    ])
    def test_dump_takes_no_checker_flags(self, flags, capsys):
        err = _usage_error(["dump", "--vms", "3", *flags], capsys)
        assert flags[0] in err
