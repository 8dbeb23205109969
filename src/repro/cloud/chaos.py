"""Seeded lifecycle chaos: the pool itself becomes the fault model.

PR 1 made single *reads* unreliable; this module makes the *pool*
unreliable. A cloud's guests reboot (reloading every module at fresh
bases), freeze in pause windows, black out during live migrations, and
are created and destroyed mid-sweep. :class:`ChaosEngine` drives those
transitions on the simulated clock from one PCG64 stream derived from
the global seed (:mod:`repro.rng`), so the full churn trace — which VM
did what, when — is a pure function of ``(seed, rates)``, exactly like
:class:`~repro.hypervisor.faults.FaultInjector`'s fault schedule.

The engine is stepped, not threaded: callers (the
:class:`~repro.core.daemon.CheckDaemon`, the soak tests, the CLI) call
:meth:`ChaosEngine.step` once per checking cycle. Each step first
closes any due windows (unpausing paused guests, finishing migrations),
then draws one lifecycle event per RUNNING guest, then draws a
pool-growth event. Stepping at cycle boundaries keeps sweeps internally
consistent — a real cloud mutates mid-copy too, but that hazard is
PR 1's torn-page fault, not this layer's job.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..counters import Series, declare
from ..errors import DomainNotFound, DomainStateError
from ..hypervisor.domain import DomainState
from ..hypervisor.xen import Hypervisor
from ..pe.builder import DriverBlueprint
from ..rng import derive_seed, make_rng

__all__ = ["ChaosConfig", "ChaosEvent", "ChaosStats", "ChaosEngine"]

#: Share of a scalar ``churn_rate`` given to each event kind by
#: :meth:`ChaosConfig.from_churn_rate`. Reboots dominate because they
#: are the interesting case (fresh bases, warm-up, re-walk); membership
#: change is rarer, as in a real fleet.
CHURN_SPLIT = {"reboot": 0.40, "pause": 0.25, "migrate": 0.15,
               "destroy": 0.10, "create": 0.10}


@dataclass(frozen=True)
class ChaosConfig:
    """Per-step event probabilities and window durations (sim seconds).

    Rates are *per guest per step* (create is per step for the whole
    pool). ``min_pool`` stops destroys from shrinking the pool below a
    viable quorum; ``max_pool`` stops creates from growing it without
    bound. ``only_domains`` restricts churn to named guests (``None`` =
    every guest), mirroring ``FaultConfig.only_domains``.
    """

    reboot_rate: float = 0.0
    pause_rate: float = 0.0
    #: how long a paused guest stays frozen before the engine unpauses it
    pause_duration: float = 90.0
    migrate_rate: float = 0.0
    #: how long a live migration blacks out the domain's reads
    migrate_duration: float = 150.0
    destroy_rate: float = 0.0
    create_rate: float = 0.0
    min_pool: int = 2
    max_pool: int = 32
    only_domains: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {value}")
            if f.name.endswith("_duration") and value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value}")
        per_guest = (self.reboot_rate + self.pause_rate + self.migrate_rate
                     + self.destroy_rate)
        if per_guest > 1.0:
            raise ValueError(f"per-guest churn rates sum to {per_guest} > 1")
        if self.min_pool < 0 or self.max_pool < self.min_pool:
            raise ValueError("need 0 <= min_pool <= max_pool")

    @property
    def any_churn(self) -> bool:
        return (self.reboot_rate or self.pause_rate or self.migrate_rate
                or self.destroy_rate or self.create_rate) > 0

    @classmethod
    def from_churn_rate(cls, rate: float, **overrides) -> "ChaosConfig":
        """One scalar knob (the CLI's ``--churn-rate``) split across
        event kinds per :data:`CHURN_SPLIT`."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"churn rate must be in [0, 1], got {rate}")
        kwargs = {f"{kind}_rate": rate * share
                  for kind, share in CHURN_SPLIT.items()}
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass(frozen=True)
class ChaosEvent:
    """One lifecycle transition the engine applied."""

    time: float
    kind: str          # reboot|pause|unpause|migrate-start|migrate-finish|
                       # destroy|create
    vm: str

    def __str__(self) -> str:
        return f"[{self.time:10.3f}s] chaos: {self.kind} {self.vm}"


@declare(*(Series("modchecker_chaos_events_total",
                  "Lifecycle chaos events applied by kind", kind,
                  {"kind": kind})
           for kind in ("reboots", "pauses", "unpauses", "migrations",
                        "migrations_finished", "destroys", "creates")))
@dataclass
class ChaosStats:
    """Counters for what the engine actually did."""

    steps: int = 0
    reboots: int = 0
    pauses: int = 0
    unpauses: int = 0
    migrations: int = 0
    migrations_finished: int = 0
    destroys: int = 0
    creates: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def events(self) -> int:
        return sum(v for k, v in self.as_dict().items() if k != "steps")


class ChaosEngine:
    """Seeded lifecycle churn over a hypervisor's guest pool.

    Usage::

        engine = ChaosEngine(hv, ChaosConfig.from_churn_rate(0.2),
                             seed=42, catalog=tb.catalog)
        engine.step()        # once per checking cycle
        engine.trace         # the full churn history, deterministic

    ``catalog`` supplies the installation media for created guests
    (``Chaos1``, ``Chaos2``, ...); without one, ``create_rate`` is
    effectively zero. Like :class:`FaultInjector`, the engine
    advertises itself as ``hypervisor.chaos_engine`` so the
    observability bridge can publish churn counters without new
    plumbing.
    """

    def __init__(self, hypervisor: Hypervisor,
                 config: ChaosConfig | None = None, *,
                 seed: int | None = None,
                 catalog: dict[str, DriverBlueprint] | None = None,
                 os_flavor: str = "xp-sp2") -> None:
        self.hv = hypervisor
        self.config = config or ChaosConfig()
        self.seed = derive_seed(seed, "chaos-engine")
        self.rng = make_rng(self.seed)
        self.catalog = catalog
        self.os_flavor = os_flavor
        self.stats = ChaosStats()
        #: every event ever applied, in order — the churn trace
        self.trace: list[ChaosEvent] = []
        self._pause_until: dict[str, float] = {}
        self._migrate_until: dict[str, float] = {}
        self._created = 0
        hypervisor.chaos_engine = self  # type: ignore[attr-defined]

    # -- bookkeeping -------------------------------------------------------

    def _record(self, kind: str, vm: str,
                events: list[ChaosEvent]) -> None:
        event = ChaosEvent(self.hv.clock.now, kind, vm)
        self.trace.append(event)
        events.append(event)

    def _targets(self, name: str) -> bool:
        only = self.config.only_domains
        return only is None or name in only

    def _pool_size(self) -> int:
        return len(self.hv.guests())

    # -- the step ----------------------------------------------------------

    def step(self) -> list[ChaosEvent]:
        """Apply one round of churn; returns the events of this step."""
        cfg = self.config
        now = self.hv.clock.now
        events: list[ChaosEvent] = []
        self.stats.steps += 1

        # 1. close due windows (sorted: deterministic under dict churn)
        for name in sorted(self._pause_until):
            if now >= self._pause_until[name]:
                del self._pause_until[name]
                if self._try(self.hv.unpause, name):
                    self.stats.unpauses += 1
                    self._record("unpause", name, events)
        for name in sorted(self._migrate_until):
            if now >= self._migrate_until[name]:
                del self._migrate_until[name]
                if self._try(self.hv.migrate_finish, name):
                    self.stats.migrations_finished += 1
                    self._record("migrate-finish", name, events)

        # 2. one draw per RUNNING guest, in creation order
        for domain in list(self.hv.guests()):
            if domain.state is not DomainState.RUNNING:
                continue
            if not self._targets(domain.name):
                continue
            u = float(self.rng.random())
            edge = cfg.reboot_rate
            if u < edge:
                self.hv.reboot(domain.name)
                self.stats.reboots += 1
                self._record("reboot", domain.name, events)
                continue
            edge += cfg.pause_rate
            if u < edge:
                self.hv.pause(domain.name)
                self._pause_until[domain.name] = now + cfg.pause_duration
                self.stats.pauses += 1
                self._record("pause", domain.name, events)
                continue
            edge += cfg.migrate_rate
            if u < edge:
                self.hv.migrate_start(domain.name)
                self._migrate_until[domain.name] = \
                    now + cfg.migrate_duration
                self.stats.migrations += 1
                self._record("migrate-start", domain.name, events)
                continue
            edge += cfg.destroy_rate
            if u < edge and self._pool_size() > cfg.min_pool:
                self.hv.destroy(domain.name)
                self._pause_until.pop(domain.name, None)
                self._migrate_until.pop(domain.name, None)
                self.stats.destroys += 1
                self._record("destroy", domain.name, events)

        # 3. one pool-growth draw per step
        if cfg.create_rate and float(self.rng.random()) < cfg.create_rate \
                and self.catalog is not None \
                and self._pool_size() < cfg.max_pool:
            name = self.create_guest()
            self._record("create", name, events)

        return events

    def create_guest(self, name: str | None = None,
                     catalog: dict[str, DriverBlueprint] | None = None,
                     ) -> str:
        """Boot a fresh clone into the pool (``ChaosN`` by default).

        Exposed separately from :meth:`step` so scenarios can admit a
        specific guest — e.g. an *infected* clone joining mid-run — via
        the same deterministic naming and seeding.
        """
        self._created += 1
        if name is None:
            name = f"Chaos{self._created}"
        self.hv.create_guest(
            name, catalog if catalog is not None else self.catalog,
            seed=derive_seed(self.seed, "chaos-guest", name),
            os_flavor=self.os_flavor)
        self.stats.creates += 1
        return name

    @staticmethod
    def _try(op, name: str) -> bool:
        """Apply a window-closing op, tolerating a vanished domain."""
        try:
            op(name)
        except (DomainNotFound, DomainStateError):
            return False
        return True
