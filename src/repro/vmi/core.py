"""The introspection library: a libvmi-0.6-alike over our hypervisor.

:class:`VMIInstance` is the only door between Dom0 tools and a guest's
memory (paper: "Module-Searcher is the only component of ModChecker
that accesses the memory of guest VMs" — it does so through this API).

Faithful properties:

* **page-granular access** — every virtual read translates each covered
  VA page by walking the *guest's own page tables* (read through the
  hypervisor like any other guest bytes, decoded by
  :func:`repro.mem.paging.walk`), then maps the backing frame;
* **read-mostly** — the one write path, :meth:`VMIInstance.
  write_va_range`, exists solely for the privileged remediation engine
  and goes through the hypervisor's protected-frame rules;
* **caches** — optional V2P and page caches as in libvmi, flushable
  between checking rounds; an LDR walk whose charges its reads explain
  keeps one ledger entry (:meth:`VMIInstance.record_walk`), replayed
  while every page it read is still cached as recorded, or, after a
  flush, while every frame it read is unchanged
  (:meth:`VMIInstance.replay_walk`);
* **cost accounting** — each primitive charges the Dom0 CPU through the
  hypervisor's contention model, producing the simulated runtimes of
  Figs. 7–9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..counters import Series, declare
from ..errors import (DomainNotFound, IntrospectionFault, PageFault,
                      PhysicalAddressError, RetryExhausted, TransientFault,
                      VMIInitError)
from ..hypervisor.xen import Hypervisor
from ..ledger import Entry, replay
from ..mem.paging import page_table_frame, walk, walk_batch
from ..mem.physical import PAGE_SIZE
from ..obs import NULL_OBS, Observability
from ..perf.costmodel import DEFAULT_COST_MODEL
from .cache import PageCache, V2PCache
from .retry import RetryPolicy
from .symbols import OSProfile

__all__ = ["BATCH_MIN_PAGES", "VMIStats", "VMIInstance"]

_PAGE_MASK = PAGE_SIZE - 1

#: Minimum covered pages before ``read_va`` / the checksum sweeps
#: dispatch to the vectorised path: below this the numpy setup costs
#: more wall-clock than the per-page loop it replaces (the dominant
#: small-read traffic — ``read_u32`` pointer chases — stays scalar).
BATCH_MIN_PAGES = 4


@declare(
    Series("modchecker_vmi_pages_mapped_total",
           "Foreign guest frames mapped into Dom0", "pages_mapped"),
    Series("modchecker_vmi_bytes_read_total",
           "Guest bytes copied out through VMI", "bytes_read"),
    Series("modchecker_vmi_translations_total",
           "Guest page-table walks performed", "translations"),
    Series("modchecker_vmi_batch_pages_total",
           "Pages served by the vectorised acquisition path", "batch_pages"),
    Series("modchecker_vmi_batch_fallbacks_total",
           "Batched calls that stood down to the scalar path",
           "batch_fallbacks"),
    Series("modchecker_cache_hits_total",
           "VMI cache hits (cumulative, never reset)",
           "translation_cache_hits", {"cache": "v2p"}),
    Series("modchecker_cache_hits_total",
           "VMI cache hits (cumulative, never reset)",
           "page_cache_hits", {"cache": "page"}),
    # exposition order: the bridge registers the per-round cache-hit
    # ratio gauges between these counters and the ``faults`` group
    faults=(
        Series("modchecker_vmi_transient_faults_total",
               "Transient introspection faults observed", "transient_faults"),
        Series("modchecker_vmi_retries_total",
               "Guest reads re-issued after a transient fault", "retries"),
        Series("modchecker_vmi_retries_recovered_total",
               "Reads that succeeded after at least one retry",
               "retries_recovered"),
        Series("modchecker_vmi_pages_protected_total",
               "Guest frames armed with write-protection",
               "pages_protected"),
        Series("modchecker_vmi_traps_drained_total",
               "Coalesced write traps drained by this session",
               "traps_drained")))
@dataclass
class VMIStats:
    """Operation counters for one VMI instance (per-VM series, ``vm``)."""

    translations: int = 0
    translation_cache_hits: int = 0
    pages_mapped: int = 0
    page_cache_hits: int = 0
    bytes_read: int = 0
    read_calls: int = 0
    #: frames digested hypervisor-side by the incremental page sweep
    #: (cheaper than mapping: no foreign mapping, no copy-out)
    pages_checksummed: int = 0
    transient_faults: int = 0
    retries: int = 0
    #: reads that succeeded after at least one retry (the "recovered"
    #: side of the faults-injected-vs-recovered observability story)
    retries_recovered: int = 0
    #: frames armed with EPT write-protection via ``protect_va_range``
    pages_protected: int = 0
    #: protection refusals (beyond memory / EPT resource limit); these
    #: pages stay on the sweep path forever
    pages_unprotectable: int = 0
    #: coalesced write traps handed to this session by ``drain_traps``
    traps_drained: int = 0
    #: frames written through the privileged remediation path
    pages_written: int = 0
    #: bytes written back by the remediation path
    bytes_written: int = 0
    #: read/checksum calls served by the vectorised acquisition path
    batch_reads: int = 0
    #: pages covered by those batched calls (translation + data in one
    #: numpy pass instead of a per-page loop)
    batch_pages: int = 0
    #: batched calls that stood down to the scalar reference path —
    #: a hole, a transient fault, a wild mapping, or caches close
    #: enough to capacity that LRU eviction order matters
    batch_fallbacks: int = 0


def _last_access_order(keys: list[int]) -> tuple[int, ...]:
    """Distinct ``keys``, ordered by the position of their last use."""
    return tuple(reversed(dict.fromkeys(reversed(keys))))


class VMIInstance:
    """An introspection session attached to one guest domain."""

    def __init__(self, hypervisor: Hypervisor, domain_key: int | str,
                 profile: OSProfile, *,
                 enable_caches: bool = True,
                 retry: RetryPolicy | None = None,
                 batch: bool = True,
                 obs: Observability = NULL_OBS) -> None:
        self.hv = hypervisor
        self.obs = obs
        #: route multi-page reads/sweeps through the vectorised
        #: acquisition path; ``batch=False`` is the escape hatch that
        #: pins every operation to the scalar reference implementation
        self.batch = batch
        try:
            self.domain = hypervisor.domain(domain_key)
        except Exception as exc:
            raise VMIInitError(
                f"cannot attach to {domain_key!r}: {exc}") from exc
        if not self.domain.is_guest:
            raise VMIInitError(f"{self.domain.name} is not introspectable")
        self.profile = profile
        self.costs = DEFAULT_COST_MODEL
        self.enable_caches = enable_caches
        self.retry = retry
        self.v2p_cache = V2PCache()
        self.page_cache = PageCache()
        self.stats = VMIStats()
        #: the last exact walk's ledger entry, see :meth:`record_walk`
        self.walk_record: Entry | None = None
        #: only a cold walk after a flush keeps a cold half (a fresh
        #: session's first walk does not: a fleet session never walks
        #: cold again)
        self._flushed = False
        self.cr3 = hypervisor.guest_cr3(domain_key)
        #: the guest's boot generation at attach time; a reboot swaps
        #: the whole address space (new CR3, new page tables), so any
        #: session with a stale generation must be re-attached
        self.boot_generation = self.domain.boot_generation

    # -- caches ---------------------------------------------------------------

    def flush_caches(self) -> None:
        """Invalidate both caches (between checking rounds).

        Also resets their hit/miss counters, so the cache-hit-ratio
        metric describes the round being started, not the whole session.
        Keeps the walk record: with both caches empty, only its cold
        half, whose guard is the guest's frames, can serve.
        """
        self.v2p_cache.flush()
        self.page_cache.flush()
        self.v2p_cache.reset_stats()
        self.page_cache.reset_stats()
        self._flushed = True

    # -- walk replay --------------------------------------------------------------

    def record_walk(self, charges: list, reads, entries) -> None:
        """Keep the walk as the session's ``walk`` ledger entry if exact.

        ``charges`` are the walk's recorded Dom0 charges, ``reads`` its
        ``(va, length)`` reads in issue order, ``entries`` its result.
        The walk is kept only if every page it read is still cached and
        its charges are exactly those its reads derive: warm, one
        ``small_read`` per read (every page hit both caches), or cold,
        ``page_translate`` at each page VA's first access,
        ``page_copy`` at each frame's first access and ``small_read``
        after each read (every first access missed, nothing was
        re-mapped). The guard holds the V2P ``va: pa`` and page-cache
        ``frame: bytes`` items the walk used, in last-access order:
        after a cold walk from empty caches, exactly
        :meth:`LRUCache.items`. A cold walk in a flushed session that
        read only guest frames (:meth:`_frozen_memory`) also keeps a
        cold half, whose guard is the bytes of every frame it read: the
        page directory, the used page tables and the data frames. The
        walk is a pure function of those frames, so while they hold, a
        re-run reads and leaves exactly what it did.
        """
        self.walk_record = None
        if not self.enable_caches:
            return
        v2p, frames = self.v2p_cache.peek, self.page_cache.peek
        costs = self.costs
        small = (costs.small_read, "small_read")
        charges = tuple(charges)
        # a cold sequence charges page_translate first: all small_read
        # charges can only be the warm one, which needs no cold list
        warm = charges.count(small) == len(charges)
        vm = self.domain.name
        page_vas: list[int] = []            # every page read, in order
        frame_nos: list[int] = []
        seen_vas: set[int] = set()
        seen_frames: set[int] = set()
        cold: list = []                     # the charges a cold walk issues
        spans: list = []                    # and the span of each
        n_reads = total = 0
        for va, length in reads:
            for page_va in range(va & ~_PAGE_MASK, va + length, PAGE_SIZE):
                pa_page = v2p(page_va)
                if pa_page is None or frames(pa_page >> 12) is None:
                    return
                frame_no = pa_page >> 12
                if not warm:
                    if page_va not in seen_vas:
                        seen_vas.add(page_va)
                        cold.append((costs.translate_walk,
                                     "page_translate"))
                        spans.append(None)
                    if frame_no not in seen_frames:
                        seen_frames.add(frame_no)
                        cold.append((costs.page_map, "page_copy"))
                        spans.append(("vmi.read_page",
                                      {"vm": vm, "frame": frame_no}))
                page_vas.append(page_va)
                frame_nos.append(frame_no)
            if not warm:
                cold.append(small)
                spans.append(None)
            n_reads += 1
            total += length
        exact = len(charges) == n_reads if warm else charges == tuple(cold)
        if not exact:
            return
        v2p_items = {page_va: v2p(page_va)
                     for page_va in _last_access_order(page_vas)}
        page_items = {frame_no: frames(frame_no)
                      for frame_no in _last_access_order(frame_nos)}
        n, entries = len(page_vas), tuple(entries)
        memory = None if warm or not self._flushed else self._frozen_memory()
        cold_half = None
        if memory is not None:
            directory = memory.read_frame(self.cr3 >> 12)
            guard = {self.cr3 >> 12: directory}
            for page_va in v2p_items:
                table = page_table_frame(directory, page_va)
                if table is not None and table not in guard:
                    guard[table] = memory.read_frame(table)
            guard.update(page_items)
            cold_half = Entry(
                tuple(guard.items()), entries, charges,
                (("translations", len(v2p_items)),
                 ("translation_cache_hits", n - len(v2p_items)),
                 ("pages_mapped", len(page_items)),
                 ("page_cache_hits", n - len(page_items)),
                 ("bytes_read", total), ("read_calls", n_reads)),
                tuple(spans))
        self.walk_record = Entry(
            (v2p_items, page_items, n, cold_half), entries,
            (small,) * n_reads,
            (("translation_cache_hits", n), ("page_cache_hits", n),
             ("bytes_read", total), ("read_calls", n_reads)))

    def replay_walk(self) -> tuple | None:
        """The recorded walk's entries, its side effects replayed.

        The warm guard, checked with stats-neutral peeks: every
        recorded page still translates to the recorded PA, its frame
        cached as the identical ``bytes`` object; then each cache's
        hits are promoted in last-access order. Failing that, with both
        caches empty (after a flush), the cold half's guard: the walk
        would read only guest frames (:meth:`_frozen_memory`) and every
        guarded frame holds its recorded bytes; then both caches are
        loaded with the items and the hit and miss counts the walk
        left. Either way the ledger re-applies that half's charges (a
        cold ``page_copy`` inside its ``vmi.read_page`` span when
        traced) and ``VMIStats`` deltas. With caches off or no guard
        holding, drops the entry and returns None.
        """
        entry = self.walk_record
        if entry is not None and self.enable_caches:
            v2p_items, page_items, n, cold = entry.guard
            v2p, pages = self.v2p_cache, self.page_cache
            if all(v2p.peek(page_va) == pa_page
                   for page_va, pa_page in v2p_items.items()) \
                    and all(pages.peek(frame_no) is frame
                            for frame_no, frame in page_items.items()):
                v2p.replay_hits(v2p_items, n)
                pages.replay_hits(page_items, n)
                return replay("walk", entry, self.hv.charge_dom0,
                              self.obs.tracer, self.stats)
            if cold is not None and not len(v2p) and not len(pages):
                memory = self._frozen_memory()
                if memory is not None and all(
                        memory.read_frame(frame_no) == frame
                        for frame_no, frame in cold.guard):
                    v2p.load(v2p_items.items(), n - len(v2p_items),
                             len(v2p_items))
                    pages.load(page_items.items(), n - len(page_items),
                               len(page_items))
                    return replay("walk", cold, self.hv.charge_dom0,
                                  self.obs.tracer, self.stats)
        self.walk_record = None
        return None

    def _frozen_memory(self):
        """The guest's physical memory, if a walk here reads only it.

        That holds when no fault injector is installed, no
        ``clock.on_advance`` subscriber can fire mid-walk (none is
        registered, or charges are deferred) and the domain is
        readable: a walk then reads guest frames and nothing else, and
        nothing writes them while it runs. None otherwise.
        """
        hv = self.hv
        if hv.fault_injector is not None \
                or hv.clock.on_advance and not hv.charges_deferred:
            return None
        try:
            domain = hv.domain(self.domain.domid)
        except DomainNotFound:
            return None
        return domain.kernel.memory if domain.introspectable else None

    def charge(self, op: str, cpu_seconds: float) -> None:
        """Charge ``cpu_seconds`` of Dom0 work as ``op`` (an
        :data:`~repro.obs.trace.OP_NAMES` op), traced when on."""
        self.hv.charge_dom0(cpu_seconds, op)
        if self.obs.tracer.enabled:
            self.obs.tracer.charge(op, cpu_seconds)

    # -- translation ------------------------------------------------------------

    def translate_kv2p(self, vaddr: int) -> int:
        """Kernel VA → PA by walking the guest's page tables."""
        page_va = vaddr & ~_PAGE_MASK
        if self.enable_caches:
            cached = self.v2p_cache.get(page_va)
            if cached is not None:
                self.stats.translation_cache_hits += 1
                return cached | (vaddr & _PAGE_MASK)
        self.stats.translations += 1
        self.charge("page_translate", self.costs.translate_walk)
        pa_page = self._walk(page_va)
        if self.enable_caches:
            self.v2p_cache.put(page_va, pa_page)
        return pa_page | (vaddr & _PAGE_MASK)

    def _walk(self, page_va: int) -> int:
        # the read primitive is looked up per walk: a tracer may hook
        # the class's method after the session attached
        return walk(partial(self.hv.read_guest_physical, self.domain.domid),
                    self.cr3, page_va)

    # -- the per-page read step ----------------------------------------------------

    def _page(self, addr: int, virtual: bool = True) -> bytes:
        """The frame backing ``addr``, translated and mapped (one attempt).

        The one per-page step of every scalar read: for a VA, the V2P
        lookup (a page-table walk charged ``page_translate`` and a put
        on a miss), then for the frame, the page-cache lookup (a foreign
        map charged ``page_copy`` and a put on a miss). A physical read
        (``virtual=False``) starts at the frame. An unmapped VA raises
        :class:`IntrospectionFault`; hypervisor faults pass through to
        the retry layer.
        """
        stats = self.stats
        caches = self.enable_caches
        if virtual:
            # translate_kv2p's accounting, inlined (one frame per read)
            page_va = addr & ~_PAGE_MASK
            pa_page = self.v2p_cache.get(page_va) if caches else None
            if pa_page is None:
                stats.translations += 1
                self.charge("page_translate", self.costs.translate_walk)
                try:
                    pa_page = self._walk(page_va)
                except PageFault as exc:
                    raise IntrospectionFault(
                        f"{self.domain.name}: unmapped VA {addr:#x}") from exc
                if caches:
                    self.v2p_cache.put(page_va, pa_page)
            else:
                stats.translation_cache_hits += 1
            frame_no = pa_page >> 12
        else:
            frame_no = addr >> 12
        if caches:
            page = self.page_cache.get(frame_no)
            if page is not None:
                stats.page_cache_hits += 1
                return page
        stats.pages_mapped += 1
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span("vmi.read_page",
                             vm=self.domain.name, frame=frame_no):
                self.charge("page_copy", self.costs.page_map)
                page = self.hv.read_guest_frame(self.domain.domid, frame_no)
        else:
            self.charge("page_copy", self.costs.page_map)
            page = self.hv.read_guest_frame(self.domain.domid, frame_no)
        if caches:
            self.page_cache.put(frame_no, page)
        return page

    # -- retry plumbing ------------------------------------------------------------

    def _retrying(self, what: str, addr: int, fetch, *args):
        """``fetch(*args)`` under the retry policy (no-op without one).

        ``what`` and ``addr`` name the attempt (``"VA page"``, a page
        VA) in retry spans and in the exhaustion message. The first
        attempt is a plain call; see :meth:`_retry` for the rest.
        """
        try:
            return fetch(*args)
        except TransientFault as fault:
            if self.retry is None:
                raise
            return self._retry(fault, what, addr, fetch, *args)

    def _retry(self, fault: TransientFault, what: str, addr: int, fetch,
               *args):
        """Attempts 2.. of ``fetch(*args)``, whose first raised ``fault``.

        Each retry probe charges ``CostModel.retry_probe`` to Dom0 and
        backs off on the simulated clock (waiting is not CPU work, so
        it advances time without a contention-stretched charge). On a
        spent budget, raises :class:`RetryExhausted` chained to the
        last fault. The name text is only built when a retry span or
        the exhaustion message needs it.
        """
        retry = self.retry
        for attempt in range(1, retry.max_attempts + 1):
            self.stats.transient_faults += 1
            if attempt >= retry.max_attempts:
                raise RetryExhausted(
                    f"{self.domain.name}: {what} {addr:#x} still "
                    f"failing after {retry.max_attempts} attempts: "
                    f"{fault}") from fault
            self.stats.retries += 1
            self.charge("retry_probe", self.costs.retry_probe)
            self.hv.clock.advance(retry.backoff(attempt - 1))
            try:
                if self.obs.tracer.enabled:
                    with self.obs.tracer.span("retry.attempt",
                                              vm=self.domain.name,
                                              what=f"{what} {addr:#x}",
                                              attempt=attempt):
                        result = fetch(*args)
                else:
                    result = fetch(*args)
            except TransientFault as exc:
                fault = exc
                continue
            self.stats.retries_recovered += 1
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    def _page_retry(self, fault: TransientFault, addr: int,
                    virtual: bool) -> bytes:
        """Finish a :meth:`_page` step whose first attempt faulted."""
        if self.retry is None:
            raise fault
        if virtual:
            return self._retry(fault, "VA page", addr & ~_PAGE_MASK,
                               self._page, addr)
        return self._retry(fault, "PA frame", addr >> 12, self._page, addr,
                           False)

    # -- reads ------------------------------------------------------------------------

    def _read(self, addr: int, length: int, virtual: bool) -> bytes:
        """Copy ``length`` bytes at ``addr`` out page by page.

        One :meth:`_page` step per covered page, then one
        ``small_read`` charge for the call. A step's first attempt is a
        plain call; only a transient fault enters the retry policy
        (:meth:`_page_retry`). A read inside one page slices its frame
        directly.
        """
        offset = addr & _PAGE_MASK
        if 0 < length <= PAGE_SIZE - offset:
            try:
                page = self._page(addr, virtual)
            except TransientFault as fault:
                page = self._page_retry(fault, addr, virtual)
            data = page[offset:offset + length]
        else:
            out = bytearray(length)
            pos = 0
            while pos < length:
                at = addr + pos
                n = min(PAGE_SIZE - (at & _PAGE_MASK), length - pos)
                try:
                    page = self._page(at, virtual)
                except TransientFault as fault:
                    page = self._page_retry(fault, at, virtual)
                offset = at & _PAGE_MASK
                out[pos:pos + n] = page[offset:offset + n]
                pos += n
            data = bytes(out)
        self.stats.bytes_read += length
        self.stats.read_calls += 1
        self.charge("small_read", self.costs.small_read)
        return data

    def read_pa(self, paddr: int, length: int) -> bytes:
        """Read a physical range through frame mappings."""
        return self._read(paddr, length, False)

    def read_va(self, vaddr: int, length: int) -> bytes:
        """Read a kernel-VA range, translating and mapping page by page.

        This is the loop the paper blames for Module-Searcher's cost:
        one translation + one foreign mapping per covered page. Ranges
        covering at least :data:`BATCH_MIN_PAGES` pages are served by
        the vectorised path (same bytes, same accounting — see
        :meth:`read_va_range_batch`); everything else, and every read
        on a ``batch=False`` instance or under an installed fault
        injector, runs the per-page step (:meth:`_page`).
        """
        if length > 0 \
                and self._covered_pages(vaddr, length) >= BATCH_MIN_PAGES \
                and self._batch_capable():
            data = self._read_va_batch(vaddr, length)
            if data is not None:
                return data
        return self._read(vaddr, length, True)

    def read_va_range_batch(self, vaddr: int, length: int) -> bytes:
        """Read a kernel-VA range through the vectorised path.

        One :func:`~repro.mem.paging.walk_batch` pass translates every
        covered page, one hypervisor gather maps every needed frame,
        and the result is assembled with numpy slicing — no per-page
        Python loop over hypervisor primitives, no intermediate
        ``bytes`` per page. Bytes, faults, stats, cache hit/miss
        series, and cost-model totals are identical to
        :meth:`read_va`; the batched call is recorded in
        ``stats.batch_reads`` / ``batch_pages``. Stands down to the
        per-page step (recorded in ``batch_fallbacks``)
        whenever exact parity cannot be guaranteed structurally: a
        fault injector is installed, the range holds a non-present
        page (the scalar replay raises the identical
        :class:`IntrospectionFault` with identical partial
        accounting), a transient fault interrupts the pristine phase,
        or an LRU cache is close enough to capacity that eviction
        order inside the read would matter.
        """
        if length > 0 and self._batch_capable():
            data = self._read_va_batch(vaddr, length)
            if data is not None:
                return data
        return self._read(vaddr, length, True)

    # -- vectorised acquisition -------------------------------------------------

    def _batch_capable(self) -> bool:
        """Whether the vectorised path may run at all right now.

        An installed fault injector interposes on the *scalar*
        hypervisor primitives and draws one RNG value per guest read;
        routing around it through the batched primitives would silently
        change fault schedules, so under a live injector every
        operation takes the per-page loop the injector knows how to
        interfere with (the fault-parity tests hold by construction).
        An *inert* injector — all rates zero, so it can never fault or
        open a window — is observability-only and does not stand the
        batch down (rate 0 must stay simulated-time invisible).
        """
        if not self.batch:
            return False
        injector = self.hv.fault_injector
        return injector is None or not injector.config.any_faults

    @staticmethod
    def _covered_pages(vaddr: int, length: int) -> int:
        return ((vaddr + length - 1) >> 12) - (vaddr >> 12) + 1

    def _resolve_pages(self, page_vas: list[int]):
        """Pristine per-page translation for the batch paths.

        Consults the V2P cache through stats-neutral ``peek`` (a stale
        cached translation must be *served*, exactly as the scalar hit
        path serves it) and resolves the misses in one
        :func:`walk_batch` pass over the guest's live page tables.
        Returns ``(pa_pages, v2p_hit)`` — or ``None`` when the batch
        must stand down: a miss page is non-present, or the walk hit a
        transient fault / wild page-table pointer. Nothing has been
        charged, counted, or cached at that point, so the scalar
        replay is bit-identical, partial accounting and all.
        """
        n = len(page_vas)
        pa_pages: list[int | None] = [None] * n
        v2p_hit = [False] * n
        miss_idx: list[int] = []
        if self.enable_caches:
            peek = self.v2p_cache.peek
            for i, pv in enumerate(page_vas):
                pa = peek(pv)
                if pa is None:
                    miss_idx.append(i)
                else:
                    pa_pages[i] = pa
                    v2p_hit[i] = True
        else:
            miss_idx = list(range(n))
        if miss_idx:
            vas = np.array([page_vas[i] for i in miss_idx], dtype=np.int64)
            domid = self.domain.domid
            try:
                frames, present, _ = walk_batch(
                    lambda pa, ln: self.hv.read_guest_physical(domid, pa,
                                                               ln),
                    self.cr3, vas)
            except (TransientFault, PhysicalAddressError):
                return None
            if not present.all():
                return None
            for i, pa in zip(miss_idx, (frames << 12).tolist()):
                pa_pages[i] = pa
        return pa_pages, v2p_hit

    def _read_va_batch(self, vaddr: int, length: int) -> bytes | None:
        """One attempt at a vectorised read; ``None`` = use scalar."""
        first_page = vaddr & ~_PAGE_MASK
        n_pages = self._covered_pages(vaddr, length)
        page_vas = [first_page + i * PAGE_SIZE for i in range(n_pages)]
        if self.enable_caches and (
                len(self.v2p_cache) + n_pages > self.v2p_cache.capacity
                or len(self.page_cache) + n_pages
                > self.page_cache.capacity):
            # A put inside this read could evict an entry this same
            # read still needs; only the scalar loop replays LRU
            # eviction order exactly, so stand down.
            self.stats.batch_fallbacks += 1
            return None
        resolved = self._resolve_pages(page_vas)
        if resolved is None:
            self.stats.batch_fallbacks += 1
            return None
        pa_pages, v2p_hit = resolved
        frame_nos = [pa >> 12 for pa in pa_pages]

        # Decide which frames need a hypervisor gather (stats-neutral
        # probes; cached frames are served from cache even when stale,
        # exactly as the scalar hit path would).
        fetch = list(dict.fromkeys(frame_nos))
        if self.enable_caches:
            peek = self.page_cache.peek
            fetch = [f for f in fetch if peek(f) is None]
        try:
            rows = self.hv.read_guest_frames(self.domain.domid, fetch) \
                if fetch else None
        except (TransientFault, PhysicalAddressError):
            self.stats.batch_fallbacks += 1
            return None
        row_of = {f: i for i, f in enumerate(fetch)}

        stats = self.stats
        start = vaddr & _PAGE_MASK
        if not self.enable_caches:
            # Every page walks and maps and no cache sees traffic, so
            # the commit is two counter bumps and one fancy-indexed
            # row copy (none when every frame is distinct: the gather
            # is already in VA order).
            stats.translations += n_pages
            stats.pages_mapped += n_pages
            walked = mapped = n_pages
            out = rows if len(fetch) == n_pages \
                else rows[[row_of[f] for f in frame_nos]]
            data = out.reshape(-1)[start:start + length].tobytes()
        else:
            # Commit: replay counters and cache traffic in VA order, so
            # hit/miss series and LRU state land exactly where the
            # scalar loop leaves them. No hypervisor call can fail past
            # here.
            pages: list[bytes] = []
            walked = mapped = 0
            for i, pv in enumerate(page_vas):
                self.v2p_cache.get(pv)     # count the hit or miss
                if v2p_hit[i]:
                    stats.translation_cache_hits += 1
                else:
                    self.v2p_cache.put(pv, pa_pages[i])
                    stats.translations += 1
                    walked += 1
                f = frame_nos[i]
                page = self.page_cache.get(f)
                if page is not None:
                    stats.page_cache_hits += 1
                else:
                    stats.pages_mapped += 1
                    mapped += 1
                    page = rows[row_of[f]].tobytes()
                    self.page_cache.put(f, page)
                pages.append(page)
            data = b"".join(pages)[start:start + length]
        self._charge_batch_read(walked, mapped, n_pages)
        stats.bytes_read += length
        stats.read_calls += 1
        return data

    def _charge_batch_read(self, walked: int, mapped: int,
                           n_pages: int) -> None:
        """Charge one batched read — same totals as the per-page loop.

        The unobserved fast path pays a single ``charge_dom0`` (one
        contention stretch for the whole read); a traced or metered run
        splits the charges (so its clock does not depend on whether a
        trace is kept) and each lands on its closed-vocabulary op, with
        the ``page_copy`` share inside one aggregated ``vmi.read_page``
        span (keeping the profiler's hotspot attribution on the same
        path the scalar per-frame spans put it on).
        """
        tracer = self.obs.tracer
        if not (tracer.enabled or self.obs.metrics.enabled):
            self.hv.charge_dom0(
                self.costs.range_read_cost(walked=walked, mapped=mapped))
        else:
            if walked:
                self.charge("page_translate",
                            walked * self.costs.translate_walk)
            if mapped:
                with tracer.span("vmi.read_page", vm=self.domain.name,
                                 pages=mapped, batch=True):
                    self.charge("page_copy", mapped * self.costs.page_map)
            self.charge("small_read", self.costs.small_read)
        self.stats.batch_reads += 1
        self.stats.batch_pages += n_pages

    # -- incremental page sweep --------------------------------------------------

    def _checksum_page(self, va: int, length: int = PAGE_SIZE) -> bytes:
        """Translate + hypervisor-side digest of one page (one attempt).

        Deliberately bypasses the page cache in both directions: no
        page bytes enter Dom0, and the sweep must never be satisfied
        from (or accounted against) cached frames — a stale cached page
        is exactly what a tampered guest would want the sweep to hash.

        ``length`` masks a partial tail page (see
        :meth:`Hypervisor.checksum_guest_frame`). Counting and charging
        happen strictly *after* the digest succeeds: under the retry
        policy a faulted attempt must not inflate ``pages_checksummed``
        or charge ``page_checksum`` a second time (the retry layer
        already charges its own ``retry_probe``).
        """
        try:
            pa = self.translate_kv2p(va)
        except PageFault as exc:
            raise IntrospectionFault(
                f"{self.domain.name}: unmapped VA {va:#x}") from exc
        digest = self.hv.checksum_guest_frame(self.domain.domid, pa >> 12,
                                              length)
        self.stats.pages_checksummed += 1
        self.charge("page_checksum", self.costs.page_checksum)
        return digest

    def checksum_va_range(self, vaddr: int, length: int,
                          ) -> tuple[bytes, ...]:
        """Per-page digests of a kernel-VA range, cheapest-first.

        The incremental fast path's content probe: every covered page
        is still *observed* every round (tamper detection is not
        optional), but through :meth:`Hypervisor.checksum_guest_frame`
        — a translate walk plus a ``page_checksum`` charge per page —
        instead of the map-and-copy loop ``read_va`` pays for. Runs
        under the same retry policy as ordinary reads. A range ending
        mid-page digests only the in-range bytes of the final frame
        (zero-padded), so co-resident neighbours past the tail cannot
        perturb the digests. Sweeps covering at least
        :data:`BATCH_MIN_PAGES` pages run vectorised (one walk pass
        plus one hypervisor-side gather-and-digest call), standing
        down to this scalar loop under the same rules as
        :meth:`read_va_range_batch`.
        """
        if length > 0 and self._batch_capable() \
                and self._covered_pages(vaddr, length) >= BATCH_MIN_PAGES:
            batched = self._checksum_va_batch(vaddr, length)
            if batched is not None:
                return tuple(batched)
        digests: list[bytes] = []
        pos = 0
        while pos < length:
            va = vaddr + pos
            n = min(PAGE_SIZE - (va & _PAGE_MASK), length - pos)
            digests.append(
                self._retrying("checksum page", va & ~_PAGE_MASK,
                               self._checksum_page, va, n))
            pos += n
        return tuple(digests)

    def _checksum_va_batch(self, vaddr: int, length: int,
                           ) -> list[bytes] | None:
        """One attempt at a vectorised full sweep; ``None`` = scalar."""
        page_vas: list[int] = []
        lengths: list[int] = []
        pos = 0
        while pos < length:
            va = vaddr + pos
            n = min(PAGE_SIZE - (va & _PAGE_MASK), length - pos)
            page_vas.append(va & ~_PAGE_MASK)
            lengths.append(n)
            pos += n
        return self._checksum_pages_batch(page_vas, lengths)

    def _checksum_pages_batch(self, page_vas: list[int],
                              lengths: list[int]) -> list[bytes] | None:
        """Shared vectorised core of both checksum sweeps.

        Same phase discipline as :meth:`_read_va_batch`: stats-neutral
        translation resolve, one pristine
        :meth:`Hypervisor.checksum_guest_frames` hypercall (digests
        are computed VMM-side, so the page cache stays bypassed in
        both directions exactly as the scalar sweep demands), then a
        commit pass that replays V2P traffic and charges aggregate
        costs with scalar-identical totals.
        """
        n_pages = len(page_vas)
        if self.enable_caches and (len(self.v2p_cache) + n_pages
                                   > self.v2p_cache.capacity):
            self.stats.batch_fallbacks += 1
            return None
        resolved = self._resolve_pages(page_vas)
        if resolved is None:
            self.stats.batch_fallbacks += 1
            return None
        pa_pages, v2p_hit = resolved
        try:
            digests = self.hv.checksum_guest_frames(
                self.domain.domid, [pa >> 12 for pa in pa_pages], lengths)
        except (TransientFault, PhysicalAddressError):
            self.stats.batch_fallbacks += 1
            return None
        stats = self.stats
        walked = 0
        for i, pv in enumerate(page_vas):
            if v2p_hit[i]:
                self.v2p_cache.get(pv)            # count hit + promote
                stats.translation_cache_hits += 1
            else:
                if self.enable_caches:
                    self.v2p_cache.get(pv)        # count the miss
                    self.v2p_cache.put(pv, pa_pages[i])
                stats.translations += 1
                walked += 1
        stats.pages_checksummed += n_pages
        if not (self.obs.tracer.enabled or self.obs.metrics.enabled):
            self.hv.charge_dom0(self.costs.range_checksum_cost(
                walked=walked, pages=n_pages))
        else:
            if walked:
                self.charge("page_translate",
                            walked * self.costs.translate_walk)
            self.charge("page_checksum", n_pages * self.costs.page_checksum)
        stats.batch_reads += 1
        stats.batch_pages += n_pages
        return digests

    def checksum_pages(self, vaddr: int, length: int,
                       indices) -> dict[int, bytes]:
        """Digest selected pages of a page-aligned VA range.

        The targeted half of event-driven monitoring: after traps name
        the dirtied pages, only those page indices are re-digested —
        O(writes), not O(pages). Same masking and retry semantics as
        :meth:`checksum_va_range`; indices outside the range raise.
        """
        if vaddr & _PAGE_MASK:
            raise ValueError(f"vaddr {vaddr:#x} is not page-aligned")
        wanted = sorted(set(indices))
        if len(wanted) >= BATCH_MIN_PAGES and self._batch_capable() \
                and all(0 <= idx * PAGE_SIZE < length for idx in wanted):
            page_vas = [vaddr + idx * PAGE_SIZE for idx in wanted]
            lengths = [min(PAGE_SIZE, length - idx * PAGE_SIZE)
                       for idx in wanted]
            digests = self._checksum_pages_batch(page_vas, lengths)
            if digests is not None:
                return dict(zip(wanted, digests))
        out: dict[int, bytes] = {}
        for idx in wanted:
            offset = idx * PAGE_SIZE
            if not 0 <= offset < length:
                raise ValueError(f"page index {idx} outside range")
            va = vaddr + offset
            n = min(PAGE_SIZE, length - offset)
            out[idx] = self._retrying("checksum page", va,
                                      self._checksum_page, va, n)
        return out

    # -- write-protection (event-driven monitoring) -------------------------------

    def protect_va_range(self, vaddr: int, length: int,
                         ) -> tuple[int | None, ...]:
        """Arm write-protection on every frame backing a kernel-VA range.

        Returns one entry per covered page, in order: the protected gfn,
        or None when the page is *unprotectable* (unmapped VA, or the
        hypervisor refused for capacity). Each armed frame charges
        ``CostModel.page_protect``; translation is charged as usual.
        The caller owns the returned gfns — it must hand each one back
        to :meth:`Hypervisor.unprotect_guest_frame` when done (the
        hypervisor refcounts, so overlapping monitors compose).
        """
        gfns: list[int | None] = []
        pos = 0
        try:
            while pos < length:
                va = vaddr + pos
                n = min(PAGE_SIZE - (va & _PAGE_MASK), length - pos)
                try:
                    pa = self._retrying("protect page", va & ~_PAGE_MASK,
                                        self.translate_kv2p, va)
                except PageFault:
                    self.stats.pages_unprotectable += 1
                    gfns.append(None)
                    pos += n
                    continue
                if self.hv.protect_guest_frame(self.domain.domid,
                                               pa >> 12):
                    self.stats.pages_protected += 1
                    self.charge("page_protect", self.costs.page_protect)
                    gfns.append(pa >> 12)
                else:
                    self.stats.pages_unprotectable += 1
                    gfns.append(None)
                pos += n
        except Exception:
            # all-or-nothing: a fault mid-arming must not leak refcounts
            # on the frames already protected
            for gfn in gfns:
                if gfn is not None:
                    self.hv.unprotect_guest_frame(self.domain.domid, gfn)
            raise
        return tuple(gfns)

    # -- privileged writes (remediation) ------------------------------------------

    def write_va_range(self, vaddr: int, data: bytes) -> None:
        """Write bytes over a kernel-VA range through the privileged path.

        The remediation engine's only way into a guest: each covered
        page is translated through the guest's own page tables (under
        the retry policy, like any read) and written via
        :meth:`Hypervisor.write_guest_frame` with ``privileged=True`` —
        so trap-protected frames are written *without* delivering a
        self-inflicted trap. Charges ``CostModel.page_write`` per
        frame touched. Written frames are evicted from the page cache:
        a subsequent read must see the repaired bytes, not the tampered
        copy the cache may still hold.
        """
        length = len(data)
        view = memoryview(data)
        pos = 0
        while pos < length:
            va = vaddr + pos
            n = min(PAGE_SIZE - (va & _PAGE_MASK), length - pos)

            def put(v=va, p=pos, m=n) -> None:
                try:
                    pa = self.translate_kv2p(v)
                except PageFault as exc:
                    raise IntrospectionFault(
                        f"{self.domain.name}: unmapped VA {v:#x}") from exc
                frame_no = pa >> 12
                self.hv.write_guest_frame(
                    self.domain.domid, frame_no, bytes(view[p:p + m]),
                    pa & _PAGE_MASK, privileged=True)
                self.page_cache.pop(frame_no)

            self._retrying("write VA page", va & ~_PAGE_MASK, put)
            self.stats.pages_written += 1
            self.stats.bytes_written += n
            self.charge("page_write", self.costs.page_write)
            pos += n

    def drain_traps(self):
        """Drain this domain's pending write traps (one hypercall).

        Returns ``(traps, overflowed)`` straight from the hypervisor
        ring (see :meth:`TrapQueue.drain`). Charges one ``small_read``
        for the ring poll plus ``trap_deliver`` per trap delivered —
        the empty steady-state drain is the cheapest operation in the
        whole stack, which is the point of event-driven monitoring.
        """
        traps, overflowed = self.hv.traps.drain(self.domain.name)
        self.stats.traps_drained += len(traps)
        self.hv.charge_dom0(self.costs.small_read
                            + len(traps) * self.costs.trap_deliver)
        if self.obs.tracer.enabled:
            self.obs.tracer.charge("small_read", self.costs.small_read)
            if traps:
                self.obs.tracer.charge(
                    "trap_deliver", len(traps) * self.costs.trap_deliver)
        return traps, overflowed

    # (a u32/u16 read never covers BATCH_MIN_PAGES pages, so both skip
    # read_va's batch dispatch)

    def read_u32(self, vaddr: int) -> int:
        return int.from_bytes(self._read(vaddr, 4, True), "little")

    def read_u16(self, vaddr: int) -> int:
        return int.from_bytes(self._read(vaddr, 2, True), "little")

    # -- symbols --------------------------------------------------------------------

    def symbol(self, name: str) -> int:
        """Resolve a kernel symbol via the OS profile."""
        return self.profile.symbol(name)
