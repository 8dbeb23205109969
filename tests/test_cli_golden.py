"""Golden pin of the CLI: exit status, stdout, metrics and events.

Each command runs in-process through ``main([...])`` with
``--metrics-out`` and ``--events-out`` added. ``golden/cli_runs.json``
records per command the exit status and the sha256 of stdout (the
temporary directory masked), of the Prometheus text and of the JSONL
audit log (null when the run exported none). The commands cover every
subcommand that builds a ``ModChecker`` and the flags that feed it:
retry, faults, churn, incremental and event-driven pipelines, the
canonical pool vote, repair, SLO tracking and the sharded fleet
(including a churned run that retires a shard and borrows references).

Refreshing after an INTENTIONAL behaviour change::

    PYTHONPATH=src python -m pytest tests/test_cli_golden.py \\
        --update-golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_runs.json"

COMMANDS = [
    "check --vms 4 --infect E1",
    "check --vms 5 --pool-mode canonical --incremental --fault-rate 0.1",
    "check --vms 4 --infect E2 --repair --repair-attempts 2",
    "sweep --vms 4 --infect E2 --repair",
    "daemon --vms 5 --cycles 4 --event-driven --churn-rate 0.2 --slo",
    "daemon --vms 4 --cycles 3 --infect E1 --retry 0 --fault-rate 0.05",
    "chaos --vms 5 --cycles 6 --admit-infected 3 --incremental",
    "fleet --vms 24 --shard-size 8 --cycles 3 --event-driven "
    "--churn-rate 0.2 --fault-rate 0.05",
    "fleet --vms 16 --shard-size 4 --cycles 2 --infect E1 --victim Dom2 "
    "--repair",
    "fleet --vms 12 --shard-size 1 --cycles 5 --churn-rate 0.4 --repair "
    "--infect E1 --event-driven",
    "explain --vms 4 --infect E1",
    "dump --vms 3 --infect E1",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _file_sha(path: Path) -> str | None:
    """sha256 of an output file; None when the run wrote none (a run
    that stops on an insufficient pool exports nothing)."""
    return _sha(path.read_text()) if path.exists() else None


def run(command: str, out_dir: Path) -> dict:
    """Run one command; return what the golden records for it."""
    metrics, events = out_dir / "metrics.prom", out_dir / "events.jsonl"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(command.split() + ["--metrics-out", str(metrics),
                                     "--events-out", str(events)])
    return {"rc": rc,
            "stdout_sha256": _sha(
                stdout.getvalue().replace(str(out_dir), "<tmp>")),
            "metrics_sha256": _file_sha(metrics),
            "events_sha256": _file_sha(events)}


@pytest.fixture(scope="module")
def golden(request, tmp_path_factory) -> dict:
    if request.config.getoption("--update-golden"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {c: run(c, tmp_path_factory.mktemp("cli")) for c in COMMANDS},
            indent=2, sort_keys=True) + "\n")
        pytest.skip("golden refreshed; re-run without --update-golden")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_matches_golden(golden, command, tmp_path):
    assert run(command, tmp_path) == golden[command]
