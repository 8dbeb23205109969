"""The introspection library: a libvmi-0.6-alike over our hypervisor.

:class:`VMIInstance` is the only door between Dom0 tools and a guest's
memory (paper: "Module-Searcher is the only component of ModChecker
that accesses the memory of guest VMs" — it does so through this API).

Faithful properties:

* **page-granular access** — every virtual read translates each covered
  VA page by walking the *guest's own page tables* (read through the
  hypervisor like any other guest bytes), then maps the backing frame;
* **read-mostly** — the one write path, :meth:`VMIInstance.
  write_va_range`, exists solely for the privileged remediation engine
  and goes through the hypervisor's protected-frame rules;
* **caches** — optional V2P and page caches as in libvmi, flushable
  between checking rounds; a walk that ran entirely in them is
  replayed from a :class:`WalkRecord` (:meth:`VMIInstance.replay_walk`);
* **cost accounting** — each primitive charges the Dom0 CPU through the
  hypervisor's contention model, producing the simulated runtimes of
  Figs. 7–9.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..counters import Series, declare
from ..errors import (IntrospectionFault, PageFault, PhysicalAddressError,
                      RetryExhausted, TransientFault, VMIInitError)
from ..hypervisor.xen import Hypervisor
from ..mem.paging import LARGE_PAGE_SIZE, PDE_LARGE, PTE_PRESENT, walk_batch
from ..mem.physical import PAGE_SIZE
from ..obs import NULL_OBS, Observability
from ..perf.costmodel import DEFAULT_COST_MODEL
from .cache import PageCache, V2PCache
from .retry import RetryPolicy
from .symbols import OSProfile

__all__ = ["BATCH_MIN_PAGES", "VMIStats", "VMIInstance", "WalkRecord"]

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


@dataclass(frozen=True)
class WalkRecord:
    """A walk whose every read was a single-page hit in both caches.

    Such a read makes no hypervisor call: it returns
    ``page_cache[v2p[page_va] >> 12][off:off + n]`` and charges one
    ``small_read``. So while each page still translates to ``pa_page``
    and its frame is still cached as the same ``bytes`` object, a
    re-run would read the same bytes, follow the same pointers and
    return the same entries; :meth:`VMIInstance.replay_walk` replays
    its side effects instead.
    """

    entries: tuple
    #: ``(page_va, pa_page, frame bytes)`` per distinct page read
    pages: tuple[tuple[int, int, bytes], ...]
    #: each cache's touched keys, in order of last access
    v2p_order: tuple[int, ...]
    frame_order: tuple[int, ...]
    reads: int
    bytes_read: int


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
        #: the last all-hit walk, served by :meth:`replay_walk`
        self.walk_record: WalkRecord | None = None
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
        """
        self.v2p_cache.flush()
        self.page_cache.flush()
        self.v2p_cache.reset_stats()
        self.page_cache.reset_stats()
        self.walk_record = None

    # -- walk replay --------------------------------------------------------------

    def read_counters(self) -> tuple[int, int, int, int, int]:
        """The counters :meth:`record_walk` compares across a walk."""
        s = self.stats
        return (s.translations, s.pages_mapped, s.read_calls,
                s.translation_cache_hits, s.page_cache_hits)

    def record_walk(self, before: tuple[int, int, int, int, int],
                    reads, entries) -> None:
        """Keep a :class:`WalkRecord` if the walk ran entirely in cache.

        ``before`` is :meth:`read_counters` taken before the walk,
        ``reads`` the walk's ``(va, length)`` reads in issue order (an
        iterable, consumed only for a warm walk), ``entries`` its
        result. The walk qualifies when caches are on, it translated
        and mapped nothing, and each of ``read_calls`` and both cache
        hit counters grew by exactly one per read, every read lying
        within one page. Any other walk leaves no record.
        """
        self.walk_record = None
        translations, mapped, calls, v2p_hits, page_hits = before
        s = self.stats
        n = s.read_calls - calls
        if not self.enable_caches or s.translations != translations \
                or s.pages_mapped != mapped \
                or s.translation_cache_hits - v2p_hits != n \
                or s.page_cache_hits - page_hits != n:
            return
        reads = list(reads)
        if len(reads) != n:
            return
        v2p, frames = self.v2p_cache.peek, self.page_cache.peek
        pages: dict[int, tuple[int, int, bytes]] = {}
        page_seq: list[int] = []
        frame_seq: list[int] = []
        total = 0
        for va, length in reads:
            offset = va & _PAGE_MASK
            if length <= 0 or offset + length > PAGE_SIZE:
                return
            page_va = va - offset
            if page_va not in pages:
                pa_page = v2p(page_va)
                frame = None if pa_page is None else frames(pa_page >> 12)
                if frame is None:
                    return
                pages[page_va] = (page_va, pa_page, frame)
            page_seq.append(page_va)
            frame_seq.append(pages[page_va][1] >> 12)
            total += length
        self.walk_record = WalkRecord(
            tuple(entries), tuple(pages.values()),
            _last_access_order(page_seq), _last_access_order(frame_seq),
            n, total)

    def replay_walk(self) -> tuple | None:
        """The recorded walk's entries, with its accounting replayed.

        Checks with stats-neutral peeks only that every recorded page
        still translates to the recorded PA and that its frame is still
        cached as the identical ``bytes`` object. If so, leaves every
        counter, LRU order and Dom0 charge where re-running the walk's
        reads would — one ``small_read`` charge per read, in sequence,
        so deferred float sums stay bit-identical — and returns the
        recorded entries. Otherwise drops the record and returns None.
        """
        rec = self.walk_record
        if rec is None:
            return None
        v2p, frames = self.v2p_cache.peek, self.page_cache.peek
        if not self.enable_caches or any(
                v2p(page_va) != pa_page or frames(pa_page >> 12) is not frame
                for page_va, pa_page, frame in rec.pages):
            self.walk_record = None
            return None
        n = rec.reads
        self.v2p_cache.replay_hits(rec.v2p_order, n)
        self.page_cache.replay_hits(rec.frame_order, n)
        s = self.stats
        s.translation_cache_hits += n
        s.page_cache_hits += n
        s.bytes_read += rec.bytes_read
        s.read_calls += n
        charge, cost = self.hv.charge_dom0, self.costs.small_read
        tracer = self.obs.tracer
        if tracer.enabled:
            for _ in range(n):
                charge(cost)
                tracer.charge("small_read", cost)
        else:
            for _ in range(n):
                charge(cost)
        return rec.entries

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
        self.hv.charge_dom0(self.costs.translate_walk)
        if self.obs.tracer.enabled:
            self.obs.tracer.charge("page_translate", self.costs.translate_walk)
        pa_page = self._walk(page_va)
        if self.enable_caches:
            self.v2p_cache.put(page_va, pa_page)
        return pa_page | (vaddr & _PAGE_MASK)

    def _walk(self, page_va: int) -> int:
        pde_i = (page_va >> 22) & 0x3FF
        pte_i = (page_va >> 12) & 0x3FF
        pd_base = self.cr3 & ~_PAGE_MASK
        pde, = struct.unpack(
            "<I", self.hv.read_guest_physical(self.domain.domid,
                                              pd_base + 4 * pde_i, 4))
        if not pde & PTE_PRESENT:
            raise PageFault(page_va, f"PDE not present for {page_va:#x}")
        if pde & PDE_LARGE:
            # PSE 4 MiB page: the PDE maps it directly.
            return (pde & ~(LARGE_PAGE_SIZE - 1)) \
                | (page_va & (LARGE_PAGE_SIZE - 1) & ~_PAGE_MASK)
        pt_base = pde & ~_PAGE_MASK
        pte, = struct.unpack(
            "<I", self.hv.read_guest_physical(self.domain.domid,
                                              pt_base + 4 * pte_i, 4))
        if not pte & PTE_PRESENT:
            raise PageFault(page_va, f"PTE not present for {page_va:#x}")
        return pte & ~_PAGE_MASK

    # -- physical reads ------------------------------------------------------------

    def _map_frame(self, frame_no: int) -> bytes:
        if self.enable_caches:
            cached = self.page_cache.get(frame_no)
            if cached is not None:
                self.stats.page_cache_hits += 1
                return cached
        self.stats.pages_mapped += 1
        if self.obs.tracer.enabled:
            with self.obs.tracer.span("vmi.read_page",
                                      vm=self.domain.name, frame=frame_no):
                self.hv.charge_dom0(self.costs.page_map)
                self.obs.tracer.charge("page_copy", self.costs.page_map)
                page = self.hv.read_guest_frame(self.domain.domid, frame_no)
        else:
            self.hv.charge_dom0(self.costs.page_map)
            page = self.hv.read_guest_frame(self.domain.domid, frame_no)
        if self.enable_caches:
            self.page_cache.put(frame_no, page)
        return page

    # -- retry plumbing ------------------------------------------------------------

    def _retrying(self, fetch, what: str):
        """Run ``fetch`` under the retry policy (no-op without one).

        Each retry probe charges ``CostModel.retry_probe`` to Dom0 and
        backs off on the simulated clock (waiting is not CPU work, so it
        advances time without a contention-stretched charge). On a spent
        budget, raises :class:`RetryExhausted` chained to the last fault.
        """
        if self.retry is None:
            return fetch()
        for attempt in range(self.retry.max_attempts):
            try:
                if attempt and self.obs.tracer.enabled:
                    with self.obs.tracer.span("retry.attempt",
                                              vm=self.domain.name,
                                              what=what, attempt=attempt):
                        result = fetch()
                else:
                    result = fetch()
                if attempt:
                    self.stats.retries_recovered += 1
                return result
            except TransientFault as exc:
                self.stats.transient_faults += 1
                if attempt + 1 >= self.retry.max_attempts:
                    raise RetryExhausted(
                        f"{self.domain.name}: {what} still failing after "
                        f"{self.retry.max_attempts} attempts: {exc}") from exc
                self.stats.retries += 1
                self.hv.charge_dom0(self.costs.retry_probe)
                if self.obs.tracer.enabled:
                    self.obs.tracer.charge("retry_probe",
                                           self.costs.retry_probe)
                self.hv.clock.advance(self.retry.backoff(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def read_pa(self, paddr: int, length: int) -> bytes:
        """Read a physical range through frame mappings."""
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = paddr + pos
            frame_no, offset = addr >> 12, addr & _PAGE_MASK
            n = min(PAGE_SIZE - offset, length - pos)
            page = self._retrying(lambda f=frame_no: self._map_frame(f),
                                  f"PA frame {frame_no:#x}")
            out[pos:pos + n] = page[offset:offset + n]
            pos += n
        self.stats.bytes_read += length
        self.stats.read_calls += 1
        self.hv.charge_dom0(self.costs.small_read)
        if self.obs.tracer.enabled:
            self.obs.tracer.charge("small_read", self.costs.small_read)
        return bytes(out)

    # -- virtual reads ----------------------------------------------------------------

    def _fetch_va_page(self, va: int) -> tuple[int, bytes]:
        """Translate + map the page backing ``va`` (one attempt)."""
        try:
            pa = self.translate_kv2p(va)
        except PageFault as exc:
            raise IntrospectionFault(
                f"{self.domain.name}: unmapped VA {va:#x}") from exc
        return pa, self._map_frame(pa >> 12)

    def read_va(self, vaddr: int, length: int) -> bytes:
        """Read a kernel-VA range, translating and mapping page by page.

        This is the loop the paper blames for Module-Searcher's cost:
        one translation + one foreign mapping per covered page. Ranges
        covering at least :data:`BATCH_MIN_PAGES` pages are served by
        the vectorised path (same bytes, same accounting — see
        :meth:`read_va_range_batch`); everything else, and every read
        on a ``batch=False`` instance or under an installed fault
        injector, runs the scalar reference loop below.
        """
        if length > 0 and self._batch_capable() \
                and self._covered_pages(vaddr, length) >= BATCH_MIN_PAGES:
            data = self._read_va_batch(vaddr, length)
            if data is not None:
                return data
        return self._read_va_scalar(vaddr, length)

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
        scalar reference loop (recorded in ``batch_fallbacks``)
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
        return self._read_va_scalar(vaddr, length)

    def _read_va_scalar(self, vaddr: int, length: int) -> bytes:
        """The per-page reference loop (see :meth:`read_va`)."""
        out = bytearray(length)
        pos = 0
        while pos < length:
            va = vaddr + pos
            n = min(PAGE_SIZE - (va & _PAGE_MASK), length - pos)
            pa, page = self._retrying(lambda v=va: self._fetch_va_page(v),
                                      f"VA page {va & ~_PAGE_MASK:#x}")
            offset = pa & _PAGE_MASK
            out[pos:pos + n] = page[offset:offset + n]
            pos += n
        self.stats.bytes_read += length
        self.stats.read_calls += 1
        self.hv.charge_dom0(self.costs.small_read)
        if self.obs.tracer.enabled:
            self.obs.tracer.charge("small_read", self.costs.small_read)
        return bytes(out)

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
        injector = getattr(self.hv, "fault_injector", None)
        if injector is None:
            return True
        config = getattr(injector, "config", None)
        return config is not None and not config.any_faults

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
            for j, i in enumerate(miss_idx):
                pa_pages[i] = int(frames[j]) << 12
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
        fetch: list[int] = []
        seen: set[int] = set()
        peek = self.page_cache.peek if self.enable_caches else None
        for f in frame_nos:
            if f in seen or (peek is not None and peek(f) is not None):
                continue
            seen.add(f)
            fetch.append(f)
        try:
            rows = self.hv.read_guest_frames(self.domain.domid, fetch) \
                if fetch else None
        except (TransientFault, PhysicalAddressError):
            self.stats.batch_fallbacks += 1
            return None
        row_of = {f: i for i, f in enumerate(fetch)}

        # Commit: replay counters and cache traffic in VA order, so
        # hit/miss series and LRU state land exactly where the scalar
        # loop leaves them. No hypervisor call can fail past here.
        out = np.empty((n_pages, PAGE_SIZE), dtype=np.uint8)
        stats = self.stats
        walked = mapped = 0
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
            f = frame_nos[i]
            if self.enable_caches:
                cached = self.page_cache.get(f)
                if cached is not None:
                    stats.page_cache_hits += 1
                    out[i] = np.frombuffer(cached, dtype=np.uint8)
                    continue
            stats.pages_mapped += 1
            mapped += 1
            row = rows[row_of[f]]
            out[i] = row
            if self.enable_caches:
                self.page_cache.put(f, row.tobytes())
        self._charge_batch_read(walked, mapped, n_pages)
        stats.bytes_read += length
        stats.read_calls += 1
        start = vaddr & _PAGE_MASK
        return out.reshape(-1)[start:start + length].tobytes()

    def _charge_batch_read(self, walked: int, mapped: int,
                           n_pages: int) -> None:
        """Charge one batched read — same totals as the per-page loop.

        The untraced fast path pays a single ``charge_dom0`` (one
        contention stretch for the whole read); the traced path splits
        the charges so each lands on its closed-vocabulary op, with
        the ``page_copy`` share inside one aggregated ``vmi.read_page``
        span (keeping the profiler's hotspot attribution on the same
        path the scalar per-frame spans put it on).
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            self.hv.charge_dom0(
                self.costs.range_read_cost(walked=walked, mapped=mapped))
        else:
            if walked:
                self.hv.charge_dom0(walked * self.costs.translate_walk)
                tracer.charge("page_translate",
                              walked * self.costs.translate_walk)
            if mapped:
                with tracer.span("vmi.read_page", vm=self.domain.name,
                                 pages=mapped, batch=True):
                    self.hv.charge_dom0(mapped * self.costs.page_map)
                    tracer.charge("page_copy",
                                  mapped * self.costs.page_map)
            self.hv.charge_dom0(self.costs.small_read)
            tracer.charge("small_read", self.costs.small_read)
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
        self.hv.charge_dom0(self.costs.page_checksum)
        if self.obs.tracer.enabled:
            self.obs.tracer.charge("page_checksum", self.costs.page_checksum)
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
                self._retrying(lambda v=va, m=n: self._checksum_page(v, m),
                               f"checksum page {va & ~_PAGE_MASK:#x}"))
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
        tracer = self.obs.tracer
        if not tracer.enabled:
            self.hv.charge_dom0(self.costs.range_checksum_cost(
                walked=walked, pages=n_pages))
        else:
            if walked:
                self.hv.charge_dom0(walked * self.costs.translate_walk)
                tracer.charge("page_translate",
                              walked * self.costs.translate_walk)
            self.hv.charge_dom0(n_pages * self.costs.page_checksum)
            tracer.charge("page_checksum",
                          n_pages * self.costs.page_checksum)
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
            out[idx] = self._retrying(
                lambda v=va, m=n: self._checksum_page(v, m),
                f"checksum page {va:#x}")
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
                    pa = self._retrying(
                        lambda v=va: self.translate_kv2p(v),
                        f"protect page {va & ~_PAGE_MASK:#x}")
                except PageFault:
                    self.stats.pages_unprotectable += 1
                    gfns.append(None)
                    pos += n
                    continue
                if self.hv.protect_guest_frame(self.domain.domid,
                                               pa >> 12):
                    self.stats.pages_protected += 1
                    self.hv.charge_dom0(self.costs.page_protect)
                    if self.obs.tracer.enabled:
                        self.obs.tracer.charge("page_protect",
                                               self.costs.page_protect)
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

            self._retrying(put, f"write VA page {va & ~_PAGE_MASK:#x}")
            self.stats.pages_written += 1
            self.stats.bytes_written += n
            self.hv.charge_dom0(self.costs.page_write)
            if self.obs.tracer.enabled:
                self.obs.tracer.charge("page_write", self.costs.page_write)
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

    def read_u32(self, vaddr: int) -> int:
        return struct.unpack("<I", self.read_va(vaddr, 4))[0]

    def read_u16(self, vaddr: int) -> int:
        return struct.unpack("<H", self.read_va(vaddr, 2))[0]

    # -- symbols --------------------------------------------------------------------

    def symbol(self, name: str) -> int:
        """Resolve a kernel symbol via the OS profile."""
        return self.profile.symbol(name)
