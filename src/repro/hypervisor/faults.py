"""Deterministic fault injection on the introspection read path.

The paper assumes every guest read succeeds, but its own §V discussion
(paged-out module pages, live guests mutating memory mid-copy) says the
real channel is unreliable. This module makes that unreliability a
first-class, *reproducible* experiment variable: a seeded
:class:`FaultInjector` installed on a hypervisor receives every
``read_guest_frame`` / ``read_guest_physical`` call and injects

* **transient faults** — the read simply fails once
  (:class:`~repro.errors.TransientFault`), as a contended
  ``xc_map_foreign_range`` does under load;
* **torn pages** — the read *succeeds* but returns the previous
  contents of the frame (a live guest rewrote it mid-copy; the checker
  sees a stale snapshot, exactly the §V "memory changes during the
  check" hazard);
* **paged-out windows** — the frame enters a not-present window for
  ``paged_out_duration`` simulated seconds
  (:class:`~repro.errors.PagedOutFault`); backing off on the simulated
  clock and retrying after the window is the correct response;
* **unreachable domains** — the whole domain stops answering for
  ``unreachable_duration`` simulated seconds
  (:class:`~repro.errors.DomainUnreachable`), modelling a paused or
  migrating guest. Windows longer than the retry budget force the
  degradation path (quarantine) in the checker above.

Every decision comes from one PCG64 stream derived from the global
project seed (:mod:`repro.rng`), so a fault schedule is a pure function
of ``(seed, read sequence)`` — the fault-ablation benchmarks are as
deterministic as the fault-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..counters import Series, declare
from ..errors import (DomainNotFound, DomainUnreachable, PagedOutFault,
                      TransientFault)
from ..mem.physical import PAGE_SIZE
from ..rng import derive_seed, make_rng
from .xen import Hypervisor

__all__ = ["FaultConfig", "FaultStats", "FaultInjector"]

_PAGE_MASK = PAGE_SIZE - 1


@dataclass(frozen=True)
class FaultConfig:
    """Rates (per read) and window durations (simulated seconds)."""

    #: probability a read fails once with :class:`TransientFault`
    transient_rate: float = 0.0
    #: probability a frame read serves the *previous* frame contents
    torn_page_rate: float = 0.0
    #: probability a read opens a paged-out window on its frame
    paged_out_rate: float = 0.0
    #: how long a paged-out frame stays not-present
    paged_out_duration: float = 0.010
    #: probability a read opens an outage window on its whole domain
    unreachable_rate: float = 0.0
    #: how long an unreachable domain stays down
    unreachable_duration: float = 0.250
    #: restrict injection to these domain names (``None`` = all guests)
    only_domains: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {value}")
            if f.name.endswith("_duration") and value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value}")
        total = (self.transient_rate + self.torn_page_rate
                 + self.paged_out_rate + self.unreachable_rate)
        if total > 1.0:
            raise ValueError(f"fault rates sum to {total} > 1")

    @property
    def any_faults(self) -> bool:
        return (self.transient_rate or self.torn_page_rate
                or self.paged_out_rate or self.unreachable_rate) > 0


@declare(
    *(Series("modchecker_faults_injected_total", "Faults injected by kind",
             kind, {"kind": kind})
      for kind in ("transient", "torn_pages", "stale_served", "paged_out",
                   "window_hits", "unreachable")),
    Series("modchecker_faulted_reads_total",
           "Guest reads that passed through the fault gate", "reads"))
@dataclass
class FaultStats:
    """Counters for what the injector actually did."""

    reads: int = 0
    transient: int = 0
    torn_pages: int = 0
    stale_served: int = 0
    paged_out: int = 0
    window_hits: int = 0
    unreachable: int = 0

    @property
    def injected(self) -> int:
        """Total faulted reads (raises plus stale serves)."""
        return (self.transient + self.stale_served + self.paged_out
                + self.window_hits + self.unreachable)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultInjector:
    """Seeded fault layer over a hypervisor's guest-read primitives.

    Usage::

        injector = FaultInjector(FaultConfig(transient_rate=0.05), seed=7)
        injector.install(hv)          # or: with injector.installed(hv): ...
        ...                            # reads now fault deterministically
        injector.uninstall()

    Installing sets the hypervisor's ``fault_injector`` attribute, and
    the hypervisor's ``read_guest_frame`` and ``read_guest_physical``
    hand each read to the injector while it is set; a hypervisor with
    no injector pays one attribute test per read.
    """

    def __init__(self, config: FaultConfig | None = None, *,
                 seed: int | None = None) -> None:
        self.config = config or FaultConfig()
        #: derived from the project-wide seed chain, so one root seed
        #: reproduces the whole fault schedule
        self.seed = derive_seed(seed, "fault-injector")
        self.rng = make_rng(self.seed)
        self.stats = FaultStats()
        self._hv: Hypervisor | None = None
        # active fault windows, keyed on the simulated clock
        self._frame_windows: dict[tuple[int, int], float] = {}
        self._domain_windows: dict[int, float] = {}
        # last-seen frame contents, for torn (stale) reads
        self._stale: dict[tuple[int, int], bytes] = {}

    # -- lifecycle ---------------------------------------------------------

    def install(self, hypervisor: Hypervisor) -> "FaultInjector":
        """Interpose on ``hypervisor``'s guest-read primitives."""
        if self._hv is not None:
            raise RuntimeError("injector is already installed")
        self._hv = hypervisor
        # the observability bridge publishes our counters from here too
        hypervisor.fault_injector = self
        return self

    def uninstall(self) -> None:
        """Restore the hypervisor's pristine read path."""
        if self._hv is None:
            return
        self._hv.fault_injector = None
        self._hv = None

    def installed(self, hypervisor: Hypervisor) -> "_Installed":
        """Context manager: install on entry, uninstall on exit."""
        return _Installed(self, hypervisor)

    # -- fault decision ----------------------------------------------------

    def _targets(self, name: str) -> bool:
        only = self.config.only_domains
        return only is None or name in only

    def _check_windows(self, domid: int, frame_no: int, name: str) -> None:
        now = self._hv.clock.now  # type: ignore[union-attr]
        until = self._domain_windows.get(domid)
        if until is not None:
            if now < until:
                self.stats.window_hits += 1
                raise DomainUnreachable(
                    f"{name}: domain unreachable for {until - now:.3f}s more")
            del self._domain_windows[domid]
        until = self._frame_windows.get((domid, frame_no))
        if until is not None:
            if now < until:
                self.stats.window_hits += 1
                raise PagedOutFault(
                    f"{name}: frame {frame_no:#x} paged out for "
                    f"{until - now:.3f}s more")
            del self._frame_windows[(domid, frame_no)]

    def _roll(self, domid: int, frame_no: int, name: str) -> bool:
        """Draw once; raise for a fault, return True for a torn read."""
        cfg = self.config
        u = float(self.rng.random())
        edge = cfg.transient_rate
        if u < edge:
            self.stats.transient += 1
            raise TransientFault(
                f"{name}: transient read failure on frame {frame_no:#x}")
        edge += cfg.torn_page_rate
        if u < edge:
            self.stats.torn_pages += 1
            return True
        edge += cfg.paged_out_rate
        if u < edge:
            now = self._hv.clock.now  # type: ignore[union-attr]
            self._frame_windows[(domid, frame_no)] = \
                now + cfg.paged_out_duration
            self.stats.paged_out += 1
            raise PagedOutFault(
                f"{name}: frame {frame_no:#x} paged out "
                f"(window {cfg.paged_out_duration:.3f}s)")
        edge += cfg.unreachable_rate
        if u < edge:
            now = self._hv.clock.now  # type: ignore[union-attr]
            self._domain_windows[domid] = now + cfg.unreachable_duration
            self.stats.unreachable += 1
            raise DomainUnreachable(
                f"{name}: domain unreachable "
                f"(window {cfg.unreachable_duration:.3f}s)")
        return False

    def _gate(self, key: int | str, frame_no: int) -> bool:
        """Shared fault gate; returns True when the read must be torn."""
        assert self._hv is not None
        try:
            domain = self._hv.domain(key)
        except DomainNotFound as exc:
            # Same contract as the pristine read path: a destroyed
            # domain is unreachable, not a lookup error.
            raise DomainUnreachable(
                f"domain {key!r} is destroyed or was never created") from exc
        if not domain.is_guest or not self._targets(domain.name):
            return False
        self.stats.reads += 1
        self._check_windows(domain.domid, frame_no, domain.name)
        if not self.config.any_faults:
            return False
        return self._roll(domain.domid, frame_no, domain.name)

    # -- the reads the hypervisor hands over ---------------------------------

    def read_guest_frame(self, key: int | str, frame_no: int) -> bytes:
        """:meth:`Hypervisor.read_guest_frame` through the fault gate."""
        torn = self._gate(key, frame_no)
        hv = self._hv
        domid = hv.domain(key).domid  # type: ignore[union-attr]
        if torn:
            stale = self._stale.get((domid, frame_no))
            if stale is not None:
                self.stats.stale_served += 1
                return stale
        page = hv._introspectable_kernel(  # type: ignore[union-attr]
            key).memory.read_frame(frame_no)
        if self.config.torn_page_rate:
            self._stale[(domid, frame_no)] = page
        return page

    def read_guest_physical(self, key: int | str, paddr: int,
                            length: int) -> bytes:
        """:meth:`Hypervisor.read_guest_physical` through the fault gate."""
        frame_no = paddr >> 12
        torn = self._gate(key, frame_no)
        hv = self._hv
        domid = hv.domain(key).domid  # type: ignore[union-attr]
        if torn:
            stale = self._stale.get((domid, frame_no))
            offset = paddr & _PAGE_MASK
            if stale is not None and offset + length <= len(stale):
                self.stats.stale_served += 1
                return stale[offset:offset + length]
        return hv._introspectable_kernel(  # type: ignore[union-attr]
            key).memory.read(paddr, length)


class _Installed:
    """Context manager returned by :meth:`FaultInjector.installed`."""

    def __init__(self, injector: FaultInjector, hv: Hypervisor) -> None:
        self.injector = injector
        self.hv = hv

    def __enter__(self) -> FaultInjector:
        return self.injector.install(self.hv)

    def __exit__(self, *exc) -> None:
        self.injector.uninstall()
