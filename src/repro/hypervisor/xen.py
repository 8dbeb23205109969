"""The hypervisor: Xen-like VMM with an introspection surface.

Provides what the paper's architecture (Fig. 1) requires of Xen:

* domain lifecycle — a privileged Dom0 plus cloned DomU guests;
* a **read-only introspection surface** (``read_guest_frame`` /
  ``guest_cr3``) through which Dom0 maps guest pages, the primitive
  libvmi builds on (``xc_map_foreign_range``);
* CPU accounting — every second of Dom0 work is stretched by the
  credit-scheduler contention model and advanced on the simulated
  clock, which is how guest load degrades ModChecker's runtime (Fig. 8);
* snapshots — the paper's §III discussion notes infected VMs can be
  reverted to clean state; ``snapshot``/``revert`` implement that.

Introspection reads are deliberately *byte-copies of guest frames*:
nothing guest-side is handed to Dom0 as Python objects, so ModChecker
can only learn what a real out-of-VM tool could.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np

from ..errors import (DomainNotFound, DomainStateError, DomainUnreachable,
                      WriteProtectedError)
from ..guest.kernel import GuestKernel
from ..mem.physical import PAGE_SIZE
from ..pe.builder import DriverBlueprint
from ..rng import derive_seed
from .clock import SimClock
from .domain import Domain, DomainKind, DomainState
from .scheduler import ContentionScheduler, CpuModel
from .traps import TrapQueue

__all__ = ["Hypervisor"]


class Hypervisor:
    """A booted VMM: Dom0 + guests + clock + scheduler."""

    def __init__(self, *, cpu: CpuModel | None = None,
                 clock: SimClock | None = None,
                 trap_capacity: int = 1024,
                 protect_limit: int | None = 4096) -> None:
        self.cpu = cpu or CpuModel()
        self.clock = clock or SimClock()
        self.scheduler = ContentionScheduler(self.cpu)
        self._domains: dict[int, Domain] = {}
        self._by_name: dict[str, int] = {}
        self._next_domid = 0
        self._snapshots: dict[int, dict] = {}
        #: coalesced write traps raised by writes to protected frames
        self.traps = TrapQueue(capacity_per_vm=trap_capacity)
        #: max distinct protected frames per domain (None = unbounded);
        #: models finite EPT shadow resources — beyond the limit,
        #: :meth:`protect_guest_frame` refuses and the caller must keep
        #: sweeping those pages
        self.protect_limit = protect_limit
        self.dom0 = self._create(Domain(
            domid=self._take_domid(), name="Dom0", kind=DomainKind.DOM0,
            vcpus=1))
        #: cumulative Dom0 CPU-seconds actually consumed (pre-stretch)
        self.dom0_cpu_seconds = 0.0

    # -- lifecycle -----------------------------------------------------------------

    def _take_domid(self) -> int:
        domid = self._next_domid
        self._next_domid += 1
        return domid

    def _create(self, domain: Domain) -> Domain:
        if domain.name in self._by_name:
            raise DomainStateError(f"domain {domain.name!r} already exists")
        self._domains[domain.domid] = domain
        self._by_name[domain.name] = domain.domid
        return domain

    def create_guest(self, name: str,
                     catalog: dict[str, DriverBlueprint] | None = None,
                     *, seed: int | None = None, vcpus: int = 1,
                     ram_bytes: int | None = None,
                     os_flavor: str = "xp-sp2") -> Domain:
        """Clone-and-boot a guest from the catalog (the paper's DomU).

        Per-guest randomisation (the seed) only affects module load
        addresses — the module *files* come from the shared catalog, so
        guests are genuine clones of one installation.
        """
        kwargs = {} if ram_bytes is None else {"ram_bytes": ram_bytes}
        kernel = GuestKernel(name, seed=derive_seed(seed, "guest", name),
                             os_flavor=os_flavor, **kwargs)
        kernel.boot(catalog or {})
        return self._create(Domain(
            domid=self._take_domid(), name=name, kind=DomainKind.DOMU,
            vcpus=vcpus, kernel=kernel))

    def domain(self, key: int | str) -> Domain:
        if isinstance(key, str):
            domid = self._by_name.get(key)
            if domid is None:
                raise DomainNotFound(f"no domain named {key!r}")
            return self._domains[domid]
        try:
            return self._domains[key]
        except KeyError:
            raise DomainNotFound(f"no domid {key}") from None

    def guests(self) -> list[Domain]:
        """All DomU domains, in creation order."""
        return [d for d in self._domains.values() if d.is_guest]

    def pause(self, key: int | str) -> None:
        domain = self.domain(key)
        if domain.state is DomainState.MIGRATING:
            raise DomainStateError(f"{domain.name} is mid-migration")
        if domain.state is DomainState.SHUTDOWN:
            raise DomainStateError(f"{domain.name} is shut down")
        domain.state = DomainState.PAUSED

    def unpause(self, key: int | str) -> None:
        domain = self.domain(key)
        if domain.state is DomainState.SHUTDOWN:
            raise DomainStateError(f"{domain.name} is shut down")
        if domain.state is DomainState.MIGRATING:
            raise DomainStateError(f"{domain.name} is mid-migration")
        domain.state = DomainState.RUNNING

    def reboot(self, key: int | str) -> Domain:
        """Power-cycle a guest: modules reload at fresh bases.

        The guest kernel rebuilds its memory from its own disk (see
        :meth:`GuestKernel.reboot`), bumping the domain's
        ``boot_generation`` so cached introspection sessions know to
        re-attach. A paused guest may be rebooted (it comes back
        RUNNING); one that is mid-migration may not.
        """
        domain = self.domain(key)
        if not domain.is_guest:
            raise DomainStateError("cannot reboot Dom0")
        if domain.state is DomainState.MIGRATING:
            raise DomainStateError(f"{domain.name} is mid-migration")
        assert domain.kernel is not None
        domain.kernel.reboot()
        domain.state = DomainState.RUNNING
        # A reboot rebuilds physical memory wholesale: every gfn means
        # something new, so protections and pending traps are dropped
        # (boot generations stay honest — monitors must re-arm).
        self._drop_frame_protections(domain)
        return domain

    def migrate_start(self, key: int | str) -> None:
        """Begin a live migration: the domain enters a read blackout."""
        domain = self.domain(key)
        if not domain.is_guest:
            raise DomainStateError("cannot migrate Dom0")
        if domain.state is not DomainState.RUNNING:
            raise DomainStateError(
                f"{domain.name} is {domain.state.value}; only a running "
                f"domain can start migrating")
        domain.state = DomainState.MIGRATING

    def migrate_finish(self, key: int | str) -> None:
        """Complete a live migration: the domain is reachable again."""
        domain = self.domain(key)
        if domain.state is not DomainState.MIGRATING:
            raise DomainStateError(f"{domain.name} is not migrating")
        domain.state = DomainState.RUNNING
        # The destination host has fresh EPT tables: write protections
        # do not travel with the guest, and traps queued on the source
        # are meaningless now.
        self._drop_frame_protections(domain)

    def destroy(self, key: int | str) -> None:
        domain = self.domain(key)
        if domain.kind is DomainKind.DOM0:
            raise DomainStateError("cannot destroy Dom0")
        domain.state = DomainState.SHUTDOWN
        self._drop_frame_protections(domain)
        del self._by_name[domain.name]
        del self._domains[domain.domid]

    # -- snapshots (paper §III-B discussion) ------------------------------------------

    def snapshot(self, key: int | str) -> None:
        """Record a full snapshot of the guest: memory frames, disk
        files, and the kernel's bookkeeping (so a revert restores the
        whole machine state, as a VM snapshot does)."""
        domain = self.domain(key)
        if not domain.is_guest:
            raise DomainStateError("can only snapshot guests")
        kernel = domain.kernel
        assert kernel is not None
        self._snapshots[domain.domid] = {
            "frames": {no: frame.copy()
                       for no, frame in kernel.memory._frames.items()},
            "files": dict(kernel.fs._files),
            "modules": dict(kernel.modules),
            "exports": dict(kernel.loader.export_table),
        }

    def revert(self, key: int | str) -> None:
        """Restore the guest to its snapshot ("flush infections")."""
        domain = self.domain(key)
        snap = self._snapshots.get(domain.domid)
        if snap is None:
            raise DomainStateError(f"no snapshot for {domain.name}")
        kernel = domain.kernel
        assert kernel is not None
        kernel.memory._frames = {
            no: frame.copy() for no, frame in snap["frames"].items()}
        kernel.fs._files = dict(snap["files"])
        kernel.modules = dict(snap["modules"])
        kernel.loader.export_table = dict(snap["exports"])
        # A revert rewrites frame contents *behind* the ordinary write
        # path (same object, new frames). The boot generation does not
        # change, so armed monitors would coast on stale digests — raise
        # a whole-frame trap for every protected frame instead.
        for gfn in sorted(domain.protected_frames):
            self.traps.push(domain.name, gfn, 0, self.clock.now)

    # -- introspection surface -----------------------------------------------------

    def guest_cr3(self, key: int | str) -> int:
        domain = self.domain(key)
        if not domain.is_guest:
            raise DomainStateError(f"{domain.name} has no guest CR3")
        assert domain.kernel is not None
        return domain.kernel.cr3

    def _introspectable_kernel(self, key: int | str) -> GuestKernel:
        """Resolve the target of a guest read, or fail *consistently*.

        Every read path shares these semantics: a PAUSED domain reads
        fine (its memory is a frozen snapshot); a MIGRATING or SHUTDOWN
        domain — and one that was destroyed outright — raises
        :class:`~repro.errors.DomainUnreachable`, the retryable fault
        the VMI stack already degrades on, never a raw lookup error.
        """
        try:
            domain = self.domain(key)
        except DomainNotFound as exc:
            raise DomainUnreachable(
                f"domain {key!r} is destroyed or was never created") from exc
        if not domain.is_guest:
            raise DomainStateError(f"{domain.name} is not introspectable")
        if not domain.introspectable:
            raise DomainUnreachable(
                f"{domain.name} is {domain.state.value}; guest frames are "
                f"not mapped")
        assert domain.kernel is not None
        return domain.kernel

    def read_guest_frame(self, key: int | str, frame_no: int) -> bytes:
        """Map one guest frame read-only into Dom0 (4 KiB byte copy)."""
        return self._introspectable_kernel(key).memory.read_frame(frame_no)

    def read_guest_physical(self, key: int | str, paddr: int,
                            length: int) -> bytes:
        """Arbitrary physical-range read (libvmi's ``read_pa``)."""
        return self._introspectable_kernel(key).memory.read(paddr, length)

    def read_guest_frames(self, key: int | str, frame_nos) -> np.ndarray:
        """Map many guest frames into Dom0 in one batched call.

        The vectorised twin of :meth:`read_guest_frame`: one lifecycle
        check, then a single :meth:`PhysicalMemory.gather_frames` copy
        into a ``(n, PAGE_SIZE)`` uint8 matrix. Bytes are identical to
        ``n`` scalar frame reads. Fault injectors interpose on the
        scalar primitives only, so callers that need per-read fault
        schedules (the VMI layer, when an injector is installed) must
        not route through here — the batch path checks for an installed
        injector and falls back to scalar reads.
        """
        return self._introspectable_kernel(key).memory.gather_frames(
            frame_nos)

    def checksum_guest_frames(self, key: int | str, frame_nos,
                              lengths=None) -> list[bytes]:
        """Digests of many guest frames, computed hypervisor-side.

        Batched twin of :meth:`checksum_guest_frame`: one lifecycle
        check and one frame gather, then an md5 per row — digest bytes
        are identical to the scalar call. ``lengths`` (optional,
        parallel to ``frame_nos``) scopes each digest to the first
        ``lengths[i]`` bytes of its frame, zero-padded to a full page,
        exactly as the scalar ``length`` argument does for short module
        tails.
        """
        rows = self._introspectable_kernel(key).memory.gather_frames(
            frame_nos)
        if lengths is not None:
            if len(lengths) != rows.shape[0]:
                raise ValueError("lengths must parallel frame_nos")
            for i, length in enumerate(lengths):
                if not 0 < length <= PAGE_SIZE:
                    raise ValueError(
                        f"length {length} outside (0, {PAGE_SIZE}]")
                if length < PAGE_SIZE:
                    rows[i, length:] = 0
        return [hashlib.md5(row).digest() for row in rows]

    def checksum_guest_frame(self, key: int | str, frame_no: int,
                             length: int = PAGE_SIZE) -> bytes:
        """Digest of one guest frame, computed hypervisor-side.

        Models a VMM-assisted checksum hypercall (the trick Patagonix-
        style incremental monitors rely on): the hash runs inside the
        trusted VMM over the frame in place, so Dom0 never pays for a
        foreign mapping or a 4 KiB copy-out — the VMI layer charges
        ``CostModel.page_checksum`` instead of ``page_map``. The bytes
        are still fetched through :meth:`read_guest_frame`, so domain
        lifecycle rules and any installed fault injector apply exactly
        as they do to ordinary reads (a torn frame yields a wrong
        digest, which the manifest layer treats as a page delta).

        ``length`` scopes the digest to the first ``length`` bytes of
        the frame, zero-padded back to a full page (matching how module
        baselines pad a short tail chunk). A monitored image that ends
        mid-page must mask the co-resident tail bytes: they belong to
        whatever the guest allocator placed next, and hashing them
        produces spurious deltas.
        """
        if not 0 < length <= PAGE_SIZE:
            raise ValueError(f"length {length} outside (0, {PAGE_SIZE}]")
        page = self.read_guest_frame(key, frame_no)
        if length < PAGE_SIZE:
            page = page[:length] + bytes(PAGE_SIZE - length)
        return hashlib.md5(page).digest()

    def write_guest_frame(self, key: int | str, frame_no: int, data: bytes,
                          offset: int = 0, *, privileged: bool = False) -> None:
        """Write bytes into one guest frame from Dom0 (the repair path).

        This is the *hypervisor-side* twin of :meth:`read_guest_frame`,
        distinct from the guest's own ``aspace.write`` that attacks use:
        it maps the frame writable into Dom0 and copies ``data`` in at
        ``offset``. Lifecycle rules match guest reads (a PAUSED guest
        can be written; MIGRATING/SHUTDOWN/destroyed raises
        :class:`~repro.errors.DomainUnreachable`).

        Interaction with write-protection traps is deliberate:

        * an **unprivileged** write to a trap-protected frame is refused
          with :class:`~repro.errors.WriteProtectedError` — protections
          exist precisely to keep unauthorised writers out;
        * a **privileged** write (the remediation engine) bypasses the
          protection *and* the write observer, so it never delivers a
          self-inflicted trap: the monitor that armed the frame would
          otherwise see its own repair as tampering and invalidate the
          manifest it just healed.
        """
        kernel = self._introspectable_kernel(key)
        memory = kernel.memory
        if not 0 <= frame_no < memory.n_frames:
            raise DomainStateError(
                f"frame {frame_no:#x} beyond installed memory")
        if not 0 <= offset <= PAGE_SIZE:
            raise ValueError(f"offset {offset:#x} outside frame")
        if offset + len(data) > PAGE_SIZE:
            raise ValueError("write crosses the frame boundary")
        domain = self.domain(key)
        protected = frame_no in domain.protected_frames
        if protected and not privileged:
            raise WriteProtectedError(
                f"{domain.name} frame {frame_no:#x} is write-protected")
        paddr = frame_no * PAGE_SIZE + offset
        if privileged:
            # Detach the observer for the duration: privileged writes
            # are EPT-invisible by construction (the VMM writes through
            # its own mapping, not the guest's protected one).
            observer, memory.write_observer = memory.write_observer, None
            try:
                memory.write(paddr, data)
            finally:
                memory.write_observer = observer
        else:
            memory.write(paddr, data)

    # -- write protection (EPT-style, event-driven monitoring) ----------------------

    def protect_guest_frame(self, key: int | str, gfn: int) -> bool:
        """Arm write-protection on one guest frame.

        Returns True when armed (or already armed — protections are
        refcounted, so overlapping monitors compose). Returns False
        when the frame is *unprotectable*: beyond installed memory, or
        the domain is at :attr:`protect_limit` (finite EPT resources).
        The caller must keep sweeping unprotectable pages — refusal is
        a capacity answer, not an error.

        Raises :class:`~repro.errors.DomainUnreachable` under the same
        lifecycle rules as guest reads: protections are EPT state and
        cannot be touched mid-migration or after shutdown.
        """
        kernel = self._introspectable_kernel(key)
        domain = self.domain(key)
        if not 0 <= gfn < kernel.memory.n_frames:
            return False
        protected = domain.protected_frames
        if gfn in protected:
            protected[gfn] += 1
            return True
        if self.protect_limit is not None \
                and len(protected) >= self.protect_limit:
            return False
        protected[gfn] = 1
        self._arm_write_observer(domain)
        return True

    def unprotect_guest_frame(self, key: int | str, gfn: int) -> None:
        """Drop one reference to a frame protection.

        Forgiving by design: the domain may have been destroyed, or the
        protection already bulk-dropped by a lifecycle event — in both
        cases there is nothing left to disarm and this is a no-op.
        """
        try:
            domain = self.domain(key)
        except DomainNotFound:
            return
        refs = domain.protected_frames.get(gfn)
        if refs is None:
            return
        if refs <= 1:
            del domain.protected_frames[gfn]
        else:
            domain.protected_frames[gfn] = refs - 1

    def _drop_frame_protections(self, domain: Domain) -> None:
        """Bulk-drop a domain's protections on a lifecycle boundary.

        Clears the protected set, purges pending traps (their gfns no
        longer mean anything) and bumps ``protection_epoch`` so armed
        monitors can detect the drop in O(1) instead of trusting the
        silence of traps that can no longer fire.
        """
        domain.protected_frames.clear()
        domain.protection_epoch += 1
        self.traps.purge(domain.name)

    def _arm_write_observer(self, domain: Domain) -> None:
        """Hook the guest's physical memory write path (idempotent).

        The observer closes over the domain, not the memory: it checks
        the *live* protected set on every write and checks that the
        kernel still owns the memory object it was installed on (a
        reboot swaps the memory wholesale, orphaning old observers).
        """
        assert domain.kernel is not None
        memory = domain.kernel.memory
        if memory.write_observer is not None:
            return

        def observe(frame_no: int, offset: int, length: int) -> None:
            kernel = domain.kernel
            if kernel is None or kernel.memory is not memory:
                return
            if frame_no in domain.protected_frames:
                self.traps.push(domain.name, frame_no, offset,
                                self.clock.now)

        memory.write_observer = observe

    # -- CPU accounting ---------------------------------------------------------------

    def guest_demand(self) -> float:
        """Summed runnable vCPU demand across all guests."""
        return sum(d.runnable_vcpus for d in self._domains.values()
                   if d.is_guest)

    def charge_dom0(self, cpu_seconds: float) -> float:
        """Account ``cpu_seconds`` of Dom0 work; returns elapsed sim time.

        The work is stretched by the contention factor derived from the
        instantaneous guest load, then advanced on the simulated clock.
        """
        if cpu_seconds < 0:
            raise ValueError("negative work")
        factor = self.scheduler.dom0_slowdown(self.guest_demand())
        elapsed = cpu_seconds * factor
        self.dom0_cpu_seconds += cpu_seconds
        self.clock.advance(elapsed)
        return elapsed

    def deferred_charges(self) -> "_DeferredCharges":
        """Collect Dom0 charges without advancing the clock.

        Used by ``ModChecker(workers>1)`` checks and fleet rounds:
        CPU work is gathered inside the context, then the caller
        advances the clock once with the makespan model
        (``scheduler.parallel_elapsed``). ``with hv.deferred_charges()
        as acc: ...; acc.total`` gives the raw CPU-seconds charged.
        """
        return _DeferredCharges(self)


class _DeferredCharges:
    """Context manager that buffers charge_dom0 calls (see above)."""

    _ABSENT = object()   # sentinel: no instance attr shadowed the method

    def __init__(self, hypervisor: Hypervisor) -> None:
        self.hv = hypervisor
        self.total = 0.0
        self._prev = self._ABSENT

    def __enter__(self) -> "_DeferredCharges":
        def collect(cpu_seconds: float) -> float:
            if cpu_seconds < 0:
                raise ValueError("negative work")
            self.total += cpu_seconds
            self.hv.dom0_cpu_seconds += cpu_seconds
            return 0.0
        # Shadow the bound method on the instance for the duration,
        # saving whatever shadowed it before us (an outer deferred
        # context, or nothing). Contexts therefore nest: each inner
        # context collects into its own total and hands the previous
        # collector back on exit. Inner totals do NOT roll into the
        # outer context — the inner caller models its own elapsed time.
        self._prev = self.hv.__dict__.get("charge_dom0", self._ABSENT)
        self.hv.charge_dom0 = collect  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc) -> None:
        if self._prev is self._ABSENT:
            del self.hv.__dict__["charge_dom0"]
        else:
            self.hv.charge_dom0 = self._prev  # type: ignore[method-assign]
        self._prev = self._ABSENT
