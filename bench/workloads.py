"""The four benchmark workloads: seeded inputs, one closed-loop op each.

Every workload builds its input from the seed and drives only the
public API of ``repro.cloud`` / ``repro.core`` / ``repro.obs``. The
input is the guests' module load bases, the writer schedule and the
tamper schedule. Each op's verdicts are checked against the rule the
workload knows from how it staged the input. An op that raises or
breaks that rule counts as failed.

A workload object is stateless; :meth:`setup` returns the state an op
loop runs against, so the runner can build it several times per
process (``setup_s`` is a median over repetitions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = ["Op", "WORKLOADS", "CATALOG_SEED", "PoolWorkload",
           "DaemonEventWorkload", "FleetWorkload"]

#: Seed of the driver catalog, the paper's "single installation" every
#: guest is cloned from. It is fixed: the catalog's random function
#: sizes move the code bytes checked per op by ~6% from one catalog
#: seed to another, and host time moves with them, while the load
#: bases ``--seed`` picks for each guest barely move it.
CATALOG_SEED = 42
#: the paper experiment every infected workload stages (an inline
#: hook in hal.dll)
EXPERIMENT = "E2"


class Op(NamedTuple):
    """What one op produced, for the verdict stream and the metrics."""

    #: JSON-able verdict record (hashed into ``verdict_digest``)
    record: Any
    #: per-VM verdicts the op produced
    verdicts: int
    #: simulated-clock advance of the op, in seconds, interval excluded
    sim_s: float
    #: why the op broke its workload's rule (None = correct)
    error: str | None = None


@dataclass
class _State:
    hv: Any
    checkers: list
    obs: Any = None
    extra: dict = field(default_factory=dict)


@dataclass
class _Cloud:
    hv: Any
    catalog: dict
    vm_names: list[str]
    #: the infected module and the regions its infection changes
    module: str = ""
    regions: list[str] = field(default_factory=list)


def _boot_cloud(n_vms: int, seed: int, *, variants=None,
                victim: str | None = None) -> _Cloud:
    """Boot ``Dom1..DomN`` from the fixed catalog; ``seed`` places them.

    ``variants`` round-robins (os flavor, module set) pairs over the
    guests, as :func:`repro.cloud.build_fleet_testbed` does; without it
    every guest loads the whole catalog. ``victim`` boots with
    :data:`EXPERIMENT`'s infected blueprint.
    """
    from repro.attacks import attack_for_experiment
    from repro.guest import build_catalog
    from repro.hypervisor import Hypervisor
    catalog = build_catalog(seed=CATALOG_SEED)
    attack, module = attack_for_experiment(EXPERIMENT)
    infection = attack.apply(catalog[module])
    hv = Hypervisor()
    names = [f"Dom{i}" for i in range(1, n_vms + 1)]
    for i, name in enumerate(names):
        flavor, modules = (variants[i % len(variants)] if variants
                           else ("xp-sp2", tuple(catalog)))
        blueprints = {m: catalog[m] for m in modules}
        if name == victim:
            blueprints[module] = infection.infected
        hv.create_guest(name, blueprints, seed=seed, os_flavor=flavor)
    return _Cloud(hv, catalog, names, module,
                  list(infection.expected_regions))


# -- pool-pairwise / pool-canonical ------------------------------------------

class PoolWorkload:
    """15-VM paper testbed, Dom3 infected; round-robin pool checks."""

    vms = 15
    victim = "Dom3"
    round_len = 10          # the catalog's module count

    def __init__(self, name: str, mode: str, *, prefix_ops: int,
                 quick_ops: int = 10,
                 expected_victim: str | None = None) -> None:
        self.name = name
        self.mode = mode
        self.prefix_ops = prefix_ops
        self.quick_ops = quick_ops
        #: the VM the verdict rule expects flagged; differs from
        #: ``victim`` only in the negative-control test
        self.expected_victim = expected_victim or self.victim

    def config(self) -> dict:
        return {"vms": self.vms, "catalog_seed": CATALOG_SEED,
                "experiment": EXPERIMENT, "victim": self.victim,
                "pool_mode": self.mode, "checker_kwargs": {},
                "op": "ModChecker.check_pool over the catalog, round-robin"}

    def setup(self, seed: int) -> _State:
        from repro.core import ModChecker
        cloud = _boot_cloud(self.vms, seed, victim=self.victim)
        checker = ModChecker(cloud.hv)
        return _State(hv=cloud.hv, checkers=[checker],
                      extra={"cloud": cloud, "checker": checker})

    def op(self, st: _State, i: int) -> Op:
        cloud = st.extra["cloud"]
        modules = list(cloud.catalog)
        module = modules[i % len(modules)]
        clock = st.hv.clock
        start = clock.now
        report = st.extra["checker"].check_pool(module, mode=self.mode).report
        sim = clock.now - start
        flagged = sorted(report.flagged())
        regions = [list(report.mismatched_regions(vm)) for vm in flagged]
        want = (([self.expected_victim], [cloud.regions])
                if module == cloud.module else ([], []))
        error = None
        if (flagged, regions) != want:
            error = (f"{module}: flagged {flagged} {regions}, "
                     f"expected {want[0]} {want[1]}")
        return Op([module, flagged, regions], len(report.verdicts), sim,
                  error)


# -- daemon-event ------------------------------------------------------------

class _Writer:
    """Seeded guest-side writer: benign .data writes plus .text tampers.

    Writes go through the guest's own address space, exactly as guest
    code (or a rootkit) would write, so protected frames trap.
    """

    def __init__(self, cloud: _Cloud, rng: random.Random, *,
                 write_p: float, tamper_every: int) -> None:
        self.cloud = cloud
        self.rng = rng
        self.write_p = write_p
        self.tamper_every = tamper_every
        self.modules = list(cloud.catalog)
        self.pending_restore: tuple[Any, int, bytes] | None = None

    def _section(self, vm: str, module: str, section: str):
        kernel = self.cloud.hv.domain(vm).kernel
        sec = self.cloud.catalog[module].section(section)
        return kernel, kernel.module(module).base + sec.virtual_address, \
            sec.virtual_size

    def before_cycle(self, i: int) -> tuple[str, str] | None:
        """Apply this cycle's writes; returns the tamper (module, vm)."""
        rng = self.rng
        if rng.random() < self.write_p:
            kernel, va, size = self._section(
                rng.choice(self.cloud.vm_names), rng.choice(self.modules),
                ".data")
            kernel.aspace.write(va + rng.randrange(size - 4),
                                rng.randbytes(4))
        if self.pending_restore is not None:
            kernel, va, original = self.pending_restore
            kernel.aspace.write(va, original)
            self.pending_restore = None
        if (i + 1) % self.tamper_every:
            return None
        vm = rng.choice(self.cloud.vm_names)
        module = rng.choice(self.modules)
        kernel, text_va, size = self._section(vm, module, ".text")
        while True:
            # CC CC over bytes that already read CC CC (int3 padding)
            # would change nothing and could not be detected
            va = text_va + rng.randrange(size - 2)
            original = kernel.aspace.read(va, 2)
            if original != b"\xCC\xCC":
                break
        kernel.aspace.write(va, b"\xCC\xCC")
        self.pending_restore = (kernel, va, original)
        return module, vm


class DaemonEventWorkload:
    """Event-driven daemon under a seeded writer (the CLI's daemon run)."""

    name = "daemon-event"
    vms = 15
    per_cycle = 3
    warmup_cycles = 5
    write_p = 0.5
    tamper_every = 20
    round_len = tamper_every

    def __init__(self, *, prefix_ops: int, quick_ops: int = 20) -> None:
        self.prefix_ops = prefix_ops
        self.quick_ops = quick_ops

    def config(self) -> dict:
        return {"vms": self.vms, "catalog_seed": CATALOG_SEED,
                "checker_kwargs": {"event_driven": True,
                                   "obs": "make_observability"},
                "policy": f"RoundRobinPolicy(per_cycle={self.per_cycle})",
                "carve": True, "warmup_cycles": self.warmup_cycles,
                "write_p": self.write_p, "tamper_every": self.tamper_every,
                "op": "CheckDaemon.run_cycle after the writer"}

    def setup(self, seed: int) -> _State:
        from repro.core import CheckDaemon, ModChecker
        from repro.core.daemon import RoundRobinPolicy
        from repro.obs import make_observability
        cloud = _boot_cloud(self.vms, seed)
        obs = make_observability(cloud.hv.clock)
        checker = ModChecker(cloud.hv, event_driven=True, obs=obs)
        daemon = CheckDaemon(checker,
                             RoundRobinPolicy(per_cycle=self.per_cycle))
        log = daemon.run(self.warmup_cycles)
        if len(log):
            raise RuntimeError(f"warm-up raised alerts: {log.alerts}")
        writer = _Writer(cloud, random.Random(f"daemon-event:{seed}"),
                         write_p=self.write_p,
                         tamper_every=self.tamper_every)
        return _State(hv=cloud.hv, checkers=[checker], obs=obs,
                      extra={"daemon": daemon, "writer": writer})

    def op(self, st: _State, i: int) -> Op:
        daemon = st.extra["daemon"]
        tamper = st.extra["writer"].before_cycle(i)
        clock = st.hv.clock
        start, checked = clock.now, daemon.vm_checks_run
        alerts = daemon.run_cycle()
        sim = clock.now - start - daemon.interval
        record = [[a.kind, a.module, list(a.flagged_vms), list(a.regions)]
                  for a in alerts]
        got = [(a.kind, a.module, a.flagged_vms) for a in alerts]
        want = ([] if tamper is None
                else [("integrity", tamper[0], (tamper[1],))])
        error = None if got == want else f"alerts {got}, expected {want}"
        return Op(record, daemon.vm_checks_run - checked, sim, error)


# -- fleet-128 ---------------------------------------------------------------

class FleetWorkload:
    """Sharded fleet control plane at steady state, deferred charging."""

    name = "fleet-128"
    vms = 128
    shard_size = 32
    workers = 8
    warmup_rounds = 3
    victim = "Dom5"
    checker_kwargs = {"event_driven": True, "flush_caches_each_round": False}
    #: rounds between two checks of one module (3 modules per variant)
    round_len = 3

    def __init__(self, *, prefix_ops: int, quick_ops: int = 6) -> None:
        self.prefix_ops = prefix_ops
        self.quick_ops = quick_ops

    def config(self) -> dict:
        return {"vms": self.vms, "catalog_seed": CATALOG_SEED,
                "variants": "FLEET_VARIANTS", "experiment": EXPERIMENT,
                "victim": self.victim, "shard_size": self.shard_size,
                "workers": self.workers, "pool_mode": "canonical",
                "checker_kwargs": dict(self.checker_kwargs),
                "warmup_rounds": self.warmup_rounds,
                "op": "Fleet.run_cycle"}

    def setup(self, seed: int) -> _State:
        from repro.cloud import FLEET_VARIANTS, Fleet
        cloud = _boot_cloud(self.vms, seed, variants=FLEET_VARIANTS,
                            victim=self.victim)
        fleet = Fleet(cloud.hv, shard_size=self.shard_size,
                      workers=self.workers,
                      checker_kwargs=dict(self.checker_kwargs))
        fleet.run(self.warmup_rounds)
        return _State(hv=cloud.hv,
                      checkers=[s.checker for s in fleet.shards.values()],
                      extra={"fleet": fleet, "cloud": cloud,
                             "flag_rounds": []})

    def op(self, st: _State, i: int) -> Op:
        fleet = st.extra["fleet"]
        cloud = st.extra["cloud"]
        before = fleet.stats.vm_checks_total
        report = fleet.run_cycle()
        verdicts = fleet.stats.vm_checks_total - before
        record = [[shard, a.kind, a.module, list(a.flagged_vms),
                   list(a.regions)] for shard, a in report.alerts]
        want = ["integrity", cloud.module, [self.victim], cloud.regions]
        errors = [f"unexpected alert {r[1:]}" for r in record
                  if r[1:] != want]
        if verdicts != self.vms:
            errors.append(f"{verdicts} verdicts, expected {self.vms}")
        flags = st.extra["flag_rounds"]
        flags.append(bool(record))
        # the victim's shard checks the infected module once every
        # round_len rounds, so every full window holds exactly one alert
        window = flags[-self.round_len:]
        if sum(window) > 1 or (len(window) == self.round_len
                               and sum(window) != 1):
            errors.append(f"{sum(window)} alerting rounds in the last "
                          f"{len(window)}")
        return Op(record, verdicts, report.duration,
                  "; ".join(errors) or None)


#: name -> workload, in the order the runner executes them. Prefix
#: sizes fill 5-8 s of untraced op time on a 2-core x86_64 box.
WORKLOADS = {
    "pool-pairwise": PoolWorkload("pool-pairwise", "pairwise",
                                  prefix_ops=50),
    "pool-canonical": PoolWorkload("pool-canonical", "canonical",
                                   prefix_ops=150),
    "daemon-event": DaemonEventWorkload(prefix_ops=160),
    "fleet-128": FleetWorkload(prefix_ops=60),
}
