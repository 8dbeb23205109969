"""Flat obs records against the records they replaced, output for output.

:mod:`tests.obs.obs_oracle` keeps the dataclass-backed ``Tracer``,
``Span``, ``Charge``, ``EventLog`` and ``Event``. Each scenario below
runs twice on one seed, once wired with the live classes and once with
the oracle's, and every artifact a reader builds from the records must
come out identical: the events JSONL (ring and write-through sink), the
profile, its collapsed stacks, the Chrome trace, the Prometheus and
JSON metrics, the simulated clock and the verdicts.

The scenarios cover every kind of record the pipeline produces: an
event-driven daemon soak with carving and a seeded ``.text`` tamper
(trap, page-delta, re-acquire, pair replays), a fleet with repair
(deferred charging, repair events and ``page_write`` charges), a pool
check under transient faults (``retry.attempt`` spans and
``retry_probe`` charges), and a small-capacity log whose ring evicts
while a sink is open.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.export import write_chrome_trace
from repro.attacks import attack_for_experiment
from repro.attacks.memory import RuntimeCodePatchAttack
from repro.cloud import Fleet, build_fleet_testbed, build_testbed
from repro.core import CheckDaemon, ModChecker, RoundRobinPolicy
from repro.guest import build_catalog
from repro.hypervisor.faults import FaultConfig, FaultInjector
from repro.obs import MetricsRegistry, Observability, Profile
from repro.obs import events as live_events
from repro.obs import trace as live_trace
from repro.vmi.retry import RetryPolicy

from . import obs_oracle

SEED = 11

#: records name -> (Tracer class, EventLog class)
RECORDS = {
    "live": (live_trace.Tracer, live_events.EventLog),
    "oracle": (obs_oracle.Tracer, obs_oracle.EventLog),
}


def _obs(records: str, clock, **log_kwargs) -> Observability:
    tracer_cls, log_cls = RECORDS[records]
    return Observability(tracer=tracer_cls(clock), metrics=MetricsRegistry(),
                         events=log_cls(clock, **log_kwargs))


def _artifacts(obs: Observability, clock, tmp_path, verdicts) -> dict:
    """Everything the readers derive from one run's records."""
    obs.events.close()
    profile = Profile.from_tracer(obs.tracer)
    sink = obs.events.sink_path
    return {
        "events": obs.events.to_jsonl(),
        "sink": sink.read_text() if sink is not None else None,
        "profile": json.dumps(profile.to_dict(), sort_keys=True),
        "collapsed_time": profile.collapsed(weight="time"),
        "collapsed_cpu": profile.collapsed(weight="cpu"),
        "chrome": write_chrome_trace(
            obs.tracer, tmp_path / "trace.json").read_text(),
        "prometheus": obs.metrics.to_prometheus(),
        "metrics_json": json.dumps(obs.metrics.snapshot(), sort_keys=True),
        "clock": clock.now.hex(),
        "verdicts": repr(verdicts),
        "counts": (len(obs.tracer.spans), len(obs.tracer.charges),
                   len(obs.events)),
    }


def _alerts(alerts) -> list:
    return [(a.kind, a.module, tuple(a.flagged_vms), tuple(a.regions))
            for a in alerts]


def _write_data(tb, rng: random.Random) -> None:
    """A benign guest write: 4 bytes into one module's ``.data``."""
    kernel = tb.hypervisor.domain(rng.choice(tb.vm_names)).kernel
    module = rng.choice(sorted(tb.catalog))
    sec = tb.catalog[module].section(".data")
    va = kernel.module(module).base + sec.virtual_address
    kernel.aspace.write(va + rng.randrange(sec.virtual_size - 4),
                        rng.randbytes(4))


def daemon_soak(records: str, tmp_path, *, capacity: int = 65536,
                sink: bool = False) -> dict:
    """Event-driven daemon with carving under a seeded ``.data`` writer;
    Dom2's hal.dll ``.text`` is patched at cycle 4."""
    tb = build_testbed(5, seed=SEED)
    obs = _obs(records, tb.clock, capacity=capacity,
               sink=tmp_path / "events.jsonl" if sink else None)
    mc = ModChecker(tb.hypervisor, tb.profile, obs=obs, event_driven=True)
    daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=3), carve=True)
    rng = random.Random(SEED)
    alerts = []
    for cycle in range(12):
        _write_data(tb, rng)
        if cycle == 4:
            RuntimeCodePatchAttack().apply(
                tb.hypervisor.domain("Dom2").kernel, tb.catalog["hal.dll"])
        alerts += _alerts(daemon.run_cycle())
    return _artifacts(obs, tb.clock, tmp_path, alerts)


def fleet_repair(records: str, tmp_path) -> dict:
    """A sharded fleet that detects and repairs an E1 infection."""
    attack, module = attack_for_experiment("E1")
    infected = attack.apply(build_catalog(seed=SEED)[module]).infected
    tb = build_fleet_testbed(16, seed=SEED,
                             infected={"Dom2": {module: infected}})
    obs = _obs(records, tb.clock)
    fleet = Fleet(tb.hypervisor, shard_size=4, obs=obs,
                  checker_kwargs={"repair_policy": "repair"})
    for _ in range(3):
        fleet.run_cycle()
    return _artifacts(obs, tb.clock, tmp_path,
                      [(shard, *_alerts([a])) for shard, a in fleet.alert_log])


def faulted_pool(records: str, tmp_path) -> dict:
    """One pool check re-issuing reads after transient faults."""
    tb = build_testbed(4, seed=SEED)
    FaultInjector(FaultConfig(transient_rate=0.05),
                  seed=SEED).install(tb.hypervisor)
    obs = _obs(records, tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile, obs=obs,
                    retry=RetryPolicy(max_attempts=6))
    report = mc.check_pool("hal.dll").report
    verdicts = sorted((vm, v.matches, v.comparisons, v.clean)
                      for vm, v in report.verdicts.items())
    return _artifacts(obs, tb.clock, tmp_path,
                      (verdicts, sorted(report.degraded.items())))


SCENARIOS = {
    "daemon-soak": daemon_soak,
    "fleet-repair": fleet_repair,
    "faulted-pool": faulted_pool,
    "evicting-sink": lambda records, tmp_path: daemon_soak(
        records, tmp_path, capacity=40, sink=True),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    return {(name, records): run(records, tmp_path_factory.mktemp(
                f"{name}-{records}"))
            for name, run in SCENARIOS.items() for records in RECORDS}


@pytest.mark.parametrize("name", SCENARIOS)
def test_live_records_match_oracle(runs, name):
    live, oracle = runs[name, "live"], runs[name, "oracle"]
    assert live.keys() == oracle.keys()
    for key in live:
        assert live[key] == oracle[key], f"{name}: {key} differs"


def test_scenarios_cover_every_record_kind(runs):
    """The comparison is vacuous for a record kind no scenario makes."""
    soak = runs["daemon-soak", "live"]
    assert "integrity" in soak["verdicts"]             # the tamper fired
    assert '"event":"module.carved"' in soak["events"]
    assert sum(row["calls"] for row in json.loads(soak["profile"])[
        "attribution"] if row["op"] == "trap_deliver") > 1
    fleet = runs["fleet-repair", "live"]
    assert '"event":"repair.verified"' in fleet["events"]
    assert "page_write" in fleet["profile"]
    pool = runs["faulted-pool", "live"]
    assert "retry.attempt" in pool["chrome"]
    assert "retry_probe" in pool["profile"]
    evicting = runs["evicting-sink", "live"]
    ring = evicting["events"].splitlines()
    sink = evicting["sink"].splitlines()
    assert len(ring) == 40 < len(sink) and sink[-40:] == ring
