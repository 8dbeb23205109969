"""Module-Searcher — the only component that touches guest memory.

Walks the guest's ``PsLoadedModuleList`` (paper Fig. 2, §IV-A): obtain
the head from the OS profile's exported global, follow ``FLINK``
pointers through ``LDR_DATA_TABLE_ENTRY`` nodes, resolve each node's
``BaseDllName`` UNICODE_STRING, and on a (case-insensitive) name match
copy the whole module image — ``SizeOfImage`` bytes from ``DllBase`` —
page by page into a local Dom0 buffer.

Defences a real introspection tool needs are kept: a traversal bound
(a malicious guest could loop the list), pointer sanity checks, and a
fault-tolerant name read (an unmapped name page skips the node rather
than crashing the checker; a transient fault still propagates, so the
caller degrades the VM instead of silently losing a module).

A walk whose charges its reads explain, warm (all cache hits) or cold
(every first access a miss), is kept as one ledger entry on the
:class:`~repro.vmi.core.VMIInstance`
(:meth:`VMIInstance.record_walk <repro.vmi.core.VMIInstance.record_walk>`).
The next walk replays it instead of re-issuing the reads while every
page it read is still cached as recorded, or, after a cache flush,
while every frame it read (page directory, page tables, data frames)
holds the same bytes
(:meth:`VMIInstance.replay_walk <repro.vmi.core.VMIInstance.replay_walk>`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (IntrospectionFault, ModuleNotLoadedError,
                      RetryExhausted, TransientFault)
from ..guest.unicode_string import UnicodeString
from ..obs import NULL_OBS
from ..vmi.core import VMIInstance

__all__ = ["ModuleListEntry", "ModuleCopy", "ModuleSearcher"]

#: Bound on list traversal; XP loads well under this many modules.
MAX_LIST_WALK = 1024
#: Bound on a single module image; a corrupted SizeOfImage must not
#: make Dom0 copy gigabytes.
MAX_IMAGE_BYTES = 64 * 1024 * 1024
#: Copy granularity for images larger than one chunk. Every catalog
#: module fits in a single chunk, so the common case remains one
#: ``read_va`` call (byte-identical cost accounting); a hostile
#: SizeOfImage claim under the cap pays for at most one chunk of page
#: reads before the first unbacked VA faults the copy.
COPY_CHUNK_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class ModuleListEntry:
    """One decoded node of the loaded-module list."""

    name: str
    dll_base: int
    entry_point: int
    size_of_image: int
    ldr_entry_va: int


@dataclass(frozen=True)
class ModuleCopy:
    """A module image copied out of one guest."""

    vm_name: str
    module_name: str
    base: int
    image: bytes
    ldr_entry_va: int


class ModuleSearcher:
    """Finds and extracts in-memory modules from one guest via VMI."""

    def __init__(self, vmi: VMIInstance) -> None:
        self.vmi = vmi
        # DumpAnalyzer quacks like a VMIInstance but carries no obs.
        self.obs = getattr(vmi, "obs", NULL_OBS)

    # -- list walking -----------------------------------------------------------

    def list_modules(self) -> list[ModuleListEntry]:
        """Decode every node of PsLoadedModuleList, in load order.

        On a live session the walk is replayed from the session's
        record when every page it read is still cached as recorded, or,
        with the caches flushed, when every frame it read is unchanged;
        the result and all accounting equal re-running it.
        """
        with self.obs.tracer.span("searcher.walk",
                                  vm=self.vmi.domain.name) as span:
            entries = self._replay_or_walk()
            span.set(entries=len(entries))
        return entries

    def _replay_or_walk(self) -> list[ModuleListEntry]:
        vmi = self.vmi
        if not isinstance(vmi, VMIInstance):
            return self._walk_module_list()     # offline: no caches
        replayed = vmi.replay_walk()            # drops a stale entry
        if replayed is not None:
            return list(replayed)
        nodes: list[tuple[int, tuple[int, int] | None]] = []
        with vmi.hv.recorded_charges() as charges:
            entries = self._walk_module_list(nodes)
        vmi.record_walk(charges, self._walk_reads(nodes), entries)
        return entries

    def _walk_reads(self, nodes):
        """The ``(va, length)`` reads a walk over ``nodes`` issued.

        ``nodes`` holds ``(cursor, name_read)`` per visited node, as
        :meth:`_walk_module_list` collects it; the read sequence is
        derived here, after the walk, so the loop itself pays one
        append per node rather than a hook per read.
        """
        profile = self.vmi.profile
        off_base = profile.offset("LDR_DATA_TABLE_ENTRY.DllBase")
        off_entry = profile.offset("LDR_DATA_TABLE_ENTRY.EntryPoint")
        off_size = profile.offset("LDR_DATA_TABLE_ENTRY.SizeOfImage")
        off_name = profile.offset("LDR_DATA_TABLE_ENTRY.BaseDllName")
        yield self.vmi.symbol("PsLoadedModuleList"), 4      # head.FLINK
        for cursor, name_read in nodes:
            yield cursor + off_base, 4
            yield cursor + off_entry, 4
            yield cursor + off_size, 4
            yield cursor + off_name, UnicodeString.SIZE
            if name_read is not None:
                yield name_read
            yield cursor, 4                                 # node.FLINK

    def _walk_module_list(self, nodes: list | None = None,
                          ) -> list[ModuleListEntry]:
        profile = self.vmi.profile
        head = self.vmi.symbol("PsLoadedModuleList")
        off_base = profile.offset("LDR_DATA_TABLE_ENTRY.DllBase")
        off_entry = profile.offset("LDR_DATA_TABLE_ENTRY.EntryPoint")
        off_size = profile.offset("LDR_DATA_TABLE_ENTRY.SizeOfImage")
        off_name = profile.offset("LDR_DATA_TABLE_ENTRY.BaseDllName")

        entries: list[ModuleListEntry] = []
        cursor = self.vmi.read_u32(head)            # head.FLINK
        steps = 0
        while cursor != head:
            steps += 1
            if steps > MAX_LIST_WALK:
                raise IntrospectionFault(
                    "PsLoadedModuleList walk exceeded bound "
                    f"({MAX_LIST_WALK}); list may be cyclic or corrupted")
            if cursor == 0:
                raise IntrospectionFault("NULL FLINK in module list")
            dll_base = self.vmi.read_u32(cursor + off_base)
            entry_point = self.vmi.read_u32(cursor + off_entry)
            size = self.vmi.read_u32(cursor + off_size)
            name, name_read = self._read_name(cursor + off_name)
            if nodes is not None:
                nodes.append((cursor, name_read))
            if name is not None:
                entries.append(ModuleListEntry(name, dll_base, entry_point,
                                               size, cursor))
            cursor = self.vmi.read_u32(cursor)      # node.FLINK
        return entries

    def _read_name(self, us_va: int,
                   ) -> tuple[str | None, tuple[int, int] | None]:
        """``(name, (buffer, length))`` of a ``BaseDllName``.

        The second item is the buffer read issued, or None when the
        header rejected it. A permanent fault (unmapped name page)
        yields no name, so the node is skipped; a transient fault or
        spent retry budget propagates, exactly like any other walk
        read, so the VM is degraded rather than reported short.
        """
        try:
            us = UnicodeString.unpack(self.vmi.read_va(us_va,
                                                       UnicodeString.SIZE))
            if us.buffer == 0 or us.length == 0 or us.length > 512:
                return None, None
            return (us.decode(self.vmi.read_va(us.buffer, us.length)),
                    (us.buffer, us.length))
        except (TransientFault, RetryExhausted):
            raise
        except IntrospectionFault:
            return None, None

    # -- incremental fast path ---------------------------------------------------

    def verify_cached_entry(self, ldr_entry_va: int, *, dll_base: int,
                            size_of_image: int) -> bool:
        """Re-validate a previously seen LDR entry without a list walk.

        The incremental pipeline's replacement for :meth:`find`: six
        u32 reads instead of decoding the whole list. True iff the node
        still describes the same mapping (``DllBase``/``SizeOfImage``
        unchanged) *and* is still linked — both neighbours must point
        back at it. The neighbour check matters: a DKOM unlink rewires
        ``pred.FLINK``/``succ.BLINK`` around the node while leaving the
        node's own fields intact, so base/size alone would keep serving
        manifest hits for a module the full walk no longer sees.

        Transient faults propagate (the caller degrades the VM exactly
        as the full path would); a permanent :class:`IntrospectionFault`
        means the entry is gone — report False and let the full walk
        decide.
        """
        profile = self.vmi.profile
        off_base = profile.offset("LDR_DATA_TABLE_ENTRY.DllBase")
        off_size = profile.offset("LDR_DATA_TABLE_ENTRY.SizeOfImage")
        try:
            if self.vmi.read_u32(ldr_entry_va + off_base) != dll_base:
                return False
            if self.vmi.read_u32(ldr_entry_va + off_size) != size_of_image:
                return False
            succ = self.vmi.read_u32(ldr_entry_va)          # node.FLINK
            pred = self.vmi.read_u32(ldr_entry_va + 4)      # node.BLINK
            if succ == 0 or pred == 0:
                return False
            if self.vmi.read_u32(succ + 4) != ldr_entry_va:  # succ.BLINK
                return False
            if self.vmi.read_u32(pred) != ldr_entry_va:      # pred.FLINK
                return False
        except (TransientFault, RetryExhausted):
            raise       # sick VM: degrade, exactly like the full path
        except IntrospectionFault:
            return False
        return True

    # -- extraction ----------------------------------------------------------------

    def find(self, module_name: str) -> ModuleListEntry:
        """Locate a module by BaseDllName (case-insensitive)."""
        wanted = module_name.lower()
        for entry in self.list_modules():
            if entry.name.lower() == wanted:
                return entry
        raise ModuleNotLoadedError(
            f"{module_name!r} not in {self.vmi.domain.name}'s module list")

    def copy_module(self, module_name: str) -> ModuleCopy:
        """Find the module and copy its whole image into a local buffer.

        When the VMI session carries a :class:`~repro.vmi.retry.RetryPolicy`,
        a copy whose page-level retry budget is spent mid-image is retried
        *as a whole* up to ``module_attempts`` times — a fresh walk-and-copy
        usually lands after a fault window has closed. Failing all attempts,
        the last fault propagates (the pool layer degrades the VM).

        The image read itself goes through ``vmi.read_va``, so on a
        ``batch=True`` session (the default) the whole multi-page copy
        is served by the vectorised acquisition path — one walk pass,
        one frame gather — with byte- and accounting-identical results
        to the per-page loop (``batch=False``). The list *walk* that
        finds the entry stays scalar either way: it is a pointer chase
        of 4-byte reads, where batching has nothing to gather.
        """
        retry = getattr(self.vmi, "retry", None)
        attempts = retry.module_attempts if retry is not None else 1
        for attempt in range(attempts):
            try:
                return self._copy_module_once(module_name)
            except (TransientFault, RetryExhausted):
                if attempt + 1 >= attempts:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _copy_module_once(self, module_name: str) -> ModuleCopy:
        """One walk-find-copy attempt (no module-level retry)."""
        with self.obs.tracer.span("searcher.copy", vm=self.vmi.domain.name,
                                  module=module_name) as span:
            entry = self.find(module_name)
            if not (0 < entry.size_of_image <= MAX_IMAGE_BYTES):
                raise IntrospectionFault(
                    f"{module_name}: implausible SizeOfImage "
                    f"{entry.size_of_image:#x}")
            image = self._read_image(entry)
            span.set(bytes=len(image))
        return ModuleCopy(self.vmi.domain.name, entry.name, entry.dll_base,
                          image, entry.ldr_entry_va)

    def _read_image(self, entry: ModuleListEntry) -> bytes:
        """Copy ``SizeOfImage`` bytes from ``DllBase``, chunked.

        A guest-controlled size that passed the plausibility cap can
        still vastly overstate the mapped image; chunking means Dom0
        commits to at most :data:`COPY_CHUNK_BYTES` of page reads
        before the first unbacked VA aborts the copy with a clean
        :class:`IntrospectionFault`.
        """
        size = entry.size_of_image
        if size <= COPY_CHUNK_BYTES:
            return self.vmi.read_va(entry.dll_base, size)
        parts: list[bytes] = []
        for off in range(0, size, COPY_CHUNK_BYTES):
            n = min(COPY_CHUNK_BYTES, size - off)
            try:
                parts.append(self.vmi.read_va(entry.dll_base + off, n))
            except IntrospectionFault as exc:
                raise IntrospectionFault(
                    f"{entry.name}: SizeOfImage {size:#x} is not backed "
                    f"past offset {off:#x}: {exc}") from exc
        return b"".join(parts)
