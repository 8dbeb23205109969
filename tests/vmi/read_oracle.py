"""The per-page VMI read path as it stood before the fused read step.

These are the scalar read methods that :meth:`VMIInstance._page
<repro.vmi.core.VMIInstance._page>` and its callers replaced — a read
went ``read_va`` → ``_read_va_scalar`` → a per-page closure under
``_retrying`` → ``_fetch_va_page`` → ``translate_kv2p`` →
``_map_frame`` — together with the batched read, ``PhysicalMemory.
read`` and ``PhysicalMemory.gather_frames`` of the same revision. They
are kept verbatim as a differential oracle (only the retry helper is
renamed, ``_oracle_retrying``, so the sweep, protect and write paths
keep the live one): the live read path must reproduce them byte for
byte, charge for charge, cache access for cache access.

:class:`ReadOracle` is a :class:`VMIInstance` whose reads run the old
methods; :func:`install_oracle_memory` makes a guest's memory serve
reads and gathers through the old loops.
"""

from __future__ import annotations

import struct
import types

import numpy as np

from repro.errors import (IntrospectionFault, PageFault, PhysicalAddressError,
                          RetryExhausted, TransientFault)
from repro.mem.paging import LARGE_PAGE_SIZE, PDE_LARGE, PTE_PRESENT
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from repro.vmi.core import BATCH_MIN_PAGES, VMIInstance

__all__ = ["ReadOracle", "install_oracle_memory", "oracle_physical_read",
           "oracle_gather_frames"]

_PAGE_MASK = PAGE_SIZE - 1


class ReadOracle(VMIInstance):
    """A VMI session whose reads run the pre-fusion per-page chain."""

    def read_u32(self, vaddr: int) -> int:
        return struct.unpack("<I", self.read_va(vaddr, 4))[0]

    def read_u16(self, vaddr: int) -> int:
        return struct.unpack("<H", self.read_va(vaddr, 2))[0]

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
            pa, page = self._oracle_retrying(lambda v=va: self._fetch_va_page(v),
                                      f"VA page {va & ~_PAGE_MASK:#x}")
            offset = pa & _PAGE_MASK
            out[pos:pos + n] = page[offset:offset + n]
            pos += n
        self.stats.bytes_read += length
        self.stats.read_calls += 1
        self.charge("small_read", self.costs.small_read)
        return bytes(out)

    def _fetch_va_page(self, va: int) -> tuple[int, bytes]:
        """Translate + map the page backing ``va`` (one attempt)."""
        try:
            pa = self.translate_kv2p(va)
        except PageFault as exc:
            raise IntrospectionFault(
                f"{self.domain.name}: unmapped VA {va:#x}") from exc
        return pa, self._map_frame(pa >> 12)

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

    def read_pa(self, paddr: int, length: int) -> bytes:
        """Read a physical range through frame mappings."""
        out = bytearray(length)
        pos = 0
        while pos < length:
            addr = paddr + pos
            frame_no, offset = addr >> 12, addr & _PAGE_MASK
            n = min(PAGE_SIZE - offset, length - pos)
            page = self._oracle_retrying(lambda f=frame_no: self._map_frame(f),
                                  f"PA frame {frame_no:#x}")
            out[pos:pos + n] = page[offset:offset + n]
            pos += n
        self.stats.bytes_read += length
        self.stats.read_calls += 1
        self.charge("small_read", self.costs.small_read)
        return bytes(out)

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
                self.charge("page_copy", self.costs.page_map)
                page = self.hv.read_guest_frame(self.domain.domid, frame_no)
        else:
            self.charge("page_copy", self.costs.page_map)
            page = self.hv.read_guest_frame(self.domain.domid, frame_no)
        if self.enable_caches:
            self.page_cache.put(frame_no, page)
        return page

    def _oracle_retrying(self, fetch, what: str):
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
                self.charge("retry_probe", self.costs.retry_probe)
                self.hv.clock.advance(self.retry.backoff(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

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


def oracle_physical_read(self, paddr: int, length: int) -> bytes:
    """Read ``length`` bytes starting at physical address ``paddr``."""
    if paddr < 0 or length < 0 or paddr + length > self.size:
        raise PhysicalAddressError(
            f"read [{paddr:#x}, {paddr + length:#x}) outside memory")
    out = bytearray(length)
    pos = 0
    while pos < length:
        addr = paddr + pos
        frame_no, offset = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
        n = min(PAGE_SIZE - offset, length - pos)
        frame = self._frame(frame_no, create=False)
        if frame is not None:
            out[pos:pos + n] = frame[offset:offset + n].tobytes()
        pos += n
    return bytes(out)


def oracle_gather_frames(self, frame_nos) -> np.ndarray:
    """Copy many frames into one ``(n, PAGE_SIZE)`` uint8 matrix.

    The batched-acquisition primitive: one bounds check over the
    whole request, then one numpy row-copy per frame (untouched
    frames read as zeros), with no intermediate ``bytes`` objects.
    Duplicate frame numbers are allowed and copied once per
    occurrence, mirroring a per-page read loop.
    """
    fnos = np.asarray(frame_nos, dtype=np.int64)
    if fnos.ndim != 1:
        raise ValueError("frame_nos must be one-dimensional")
    if fnos.size and (int(fnos.min()) < 0
                      or int(fnos.max()) >= self.n_frames):
        bad = int(fnos[(fnos < 0) | (fnos >= self.n_frames)][0])
        raise PhysicalAddressError(
            f"frame {bad:#x} beyond installed memory "
            f"({self.n_frames:#x} frames)")
    out = np.zeros((fnos.size, PAGE_SIZE), dtype=np.uint8)
    frames = self._frames
    for i, frame_no in enumerate(fnos.tolist()):
        frame = frames.get(frame_no)
        if frame is not None:
            out[i] = frame
    return out


def install_oracle_memory(memory: PhysicalMemory) -> None:
    """Serve ``memory``'s reads and gathers through the old loops."""
    memory.read = types.MethodType(oracle_physical_read, memory)
    memory.gather_frames = types.MethodType(oracle_gather_frames, memory)
