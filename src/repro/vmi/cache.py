"""libvmi-style caches, plus the incremental-check manifest store.

libvmi keeps an address cache (translations) and a page cache (mapped
foreign frames) because mapping a guest frame through the hypervisor is
the expensive primitive. Both are plain LRU maps with hit/miss
counters; the cache ablation bench (A2) toggles them to show how much
of Module-Searcher's cost they absorb.

Caches must be *invalidated between checking rounds*: guest kernels may
remap pages at any time, and a stale translation would let an attacker
feed the checker old bytes. :meth:`LRUCache.flush` models libvmi's
``vmi_v2pcache_flush`` / ``vmi_pagecache_flush``.

The third structure here is longer-lived: :class:`ManifestStore` holds
one content-addressed :class:`CheckManifest` per ``(vm, module)`` —
the per-page checksums of the image as acquired plus the parsed copy
that produced the last *clean* verdict. It survives cache flushes on
purpose (that is the point: remembering verified content across
rounds), and instead invalidates on the events that can actually
change what the checker would see: a boot-generation bump, a page
delta, an entry relocation, an explicit membership/breaker/migration
invalidation, or the full-recheck TTL expiring.

An LDR walk is replayed from one ledger entry without issuing a read
(:meth:`VMIInstance.replay_walk`). The entry holds the items the walk
used in each cache, in last-access order. Into warm caches,
:meth:`LRUCache.replay_hits` leaves an LRU exactly where the walk's
run of hits would; into caches a flush emptied, :meth:`LRUCache.load`
refills an LRU with those items, which after a cold walk from empty
are exactly :meth:`LRUCache.items`.

Accounting discipline: manifest lookups are *not* page-cache accesses.
The store keeps its own hit/miss/invalidation counters and consults
its internal LRU map through :meth:`LRUCache.peek` — a stats-neutral
probe — so a sweep over a warm manifest can never inflate (or
double-count into) the ``modchecker_cache_*`` page/V2P series. That
is what keeps every published hit-rate a true ratio (≤ 1.0) even when
the fault injector is busy tearing reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generic, Hashable, Iterable, TypeVar

from ..counters import Series, declare

if TYPE_CHECKING:
    from ..core.parser import ParsedModule

__all__ = ["LRUCache", "V2PCache", "PageCache", "CheckManifest",
           "ManifestStore"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Bounded LRU map with hit/miss accounting."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict[K, V] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: K) -> V | None:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: K) -> V | None:
        """Stats-neutral probe: no hit/miss counted, no LRU promotion.

        Layers that keep their own accounting (the manifest store) must
        use this instead of :meth:`get`, or every one of their lookups
        would be double-counted into this cache's hit/miss series —
        the asymmetry that once let a derived hit-rate exceed 1.0.
        """
        return self._data.get(key)

    def replay_hits(self, keys: Iterable[K], hits: int) -> None:
        """Leave the state a run of ``hits`` :meth:`get` hits leaves.

        ``keys`` are the run's keys, each once, in order of its *last*
        access; all must be present. Every hit moves its key to the MRU
        end, so after the run the touched keys sit behind every
        untouched one, ordered by last access: promoting them in that
        order reproduces the ``OrderedDict`` exactly. No eviction can
        occur (a hit never inserts).
        """
        move = self._data.move_to_end
        for key in keys:
            move(key)
        self.hits += hits

    def items(self) -> tuple[tuple[K, V], ...]:
        """The ``(key, value)`` entries, least recently used first."""
        return tuple(self._data.items())

    def load(self, items: Iterable[tuple[K, V]], hits: int,
             misses: int) -> None:
        """Leave the state a run of accesses from empty leaves.

        The cache must be empty; ``items`` are what the run left, as
        :meth:`items` returned them, and ``hits``/``misses`` what it
        counted. Inserting in that order reproduces the ``OrderedDict``
        exactly; only a run that evicted nothing qualifies, so the items
        fit the capacity.
        """
        self._data.update(items)
        self.hits += hits
        self.misses += misses

    def put(self, key: K, value: V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def pop(self, key: K) -> V | None:
        """Remove and return an entry (stats-neutral), if present."""
        return self._data.pop(key, None)

    def flush(self) -> None:
        """Drop the cached entries; hit/miss counters are kept (they
        describe accesses, not contents) — use :meth:`reset_stats` to
        start a fresh accounting window."""
        self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (start of a new checking round),
        so :attr:`hit_rate` describes the current round only."""
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def keys(self) -> list[K]:
        return list(self._data.keys())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class V2PCache(LRUCache[int, int]):
    """VA page → PA page translations (keyed by page-aligned VA)."""

    def __init__(self, capacity: int = 2048) -> None:
        super().__init__(capacity)


class PageCache(LRUCache[int, bytes]):
    """Guest frame number → 4 KiB page bytes."""

    def __init__(self, capacity: int = 512) -> None:
        super().__init__(capacity)


# -- incremental-check manifests ------------------------------------------


@dataclass(frozen=True)
class CheckManifest:
    """Content-addressed record of one verified module acquisition.

    Everything the incremental fast path needs to decide "nothing
    changed" and to reuse the previous round's work when it didn't:

    * identity — ``(vm_name, module_name, boot_generation)`` plus the
      LDR entry VA / base / size the module occupied;
    * content — per-page digests of the image as acquired, condensed
      into ``content_key`` (the address under which pair comparisons
      are replayed);
    * product — the :class:`~repro.core.parser.ParsedModule` from the
      last acquisition that fed a clean verdict, so a manifest hit
      feeds the *identical* object back into voting;
    * freshness — ``verified_at``, the simulated time of the last
      **full** (non-incremental) verification; the TTL is measured
      from here and is deliberately not refreshed by sweep hits.
    """

    vm_name: str
    module_name: str
    boot_generation: int
    base: int
    size: int
    ldr_entry_va: int
    page_digests: tuple[bytes, ...]
    content_key: str
    parsed: "ParsedModule"
    verified_at: float


@declare(
    Series("modchecker_manifest_hits_total",
           "Manifest lookups that found a structurally valid entry", "hits"),
    Series("modchecker_manifest_misses_total",
           "Manifest lookups that missed, by reason", "misses", by="reason"),
    Series("modchecker_manifest_invalidations_total",
           "Manifest entries dropped, by reason", "invalidations",
           by="reason"))
@dataclass
class ManifestStats:
    """Counters for the manifest store (all cumulative)."""

    hits: int = 0
    misses: dict[str, int] = field(default_factory=dict)
    invalidations: dict[str, int] = field(default_factory=dict)

    @property
    def missed(self) -> int:
        return sum(self.misses.values())

    @property
    def lookups(self) -> int:
        return self.hits + self.missed

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ManifestStore:
    """Bounded store of :class:`CheckManifest` keyed by ``(vm, module)``.

    :meth:`lookup` validates identity (boot generation) and freshness
    (TTL) before returning anything; a stale entry is dropped and the
    miss recorded with its reason. Content validation (the page sweep)
    is the caller's job — on a delta it calls :meth:`invalidate` with
    ``reason="page-delta"`` and falls back to the full pipeline.

    A ``hit`` here means only "a structurally valid manifest exists";
    the caller still has to prove the content unchanged before using
    it. The miss reasons are the invalidation taxonomy the docs and
    metrics expose: ``absent``, ``generation``, ``ttl`` (from lookup)
    plus whatever reasons callers invalidate with (``page-delta``,
    ``entry-moved``, ``flagged``, ``admit``, ``evict``, ``breaker``,
    ``migration``, ``repaired``, ...). ``repaired`` is the repair
    engine dropping any manifest for a module it just wrote back to:
    the pre-repair digests describe bytes that no longer exist, and the
    post-repair re-verification recommits a fresh manifest only once
    the pool votes the copy clean.
    """

    def __init__(self, capacity: int = 1024, *,
                 ttl: float | None = None) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.ttl = ttl
        self._entries: LRUCache[tuple[str, str], CheckManifest] = \
            LRUCache(capacity)
        self.stats = ManifestStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _miss(self, reason: str) -> None:
        self.stats.misses[reason] = self.stats.misses.get(reason, 0) + 1

    def lookup(self, vm_name: str, module_name: str, *,
               boot_generation: int, now: float) -> CheckManifest | None:
        """A structurally valid manifest for ``(vm, module)``, or None.

        Uses :meth:`LRUCache.peek` + an explicit ``put`` so this
        store's accounting never leaks into the LRU's own counters
        (see the module docstring on the hit-rate asymmetry).
        """
        key = (vm_name, module_name)
        manifest = self._entries.peek(key)
        if manifest is None:
            self._miss("absent")
            return None
        if manifest.boot_generation != boot_generation:
            self._entries.pop(key)
            self._miss("generation")
            return None
        if self.ttl is not None and now - manifest.verified_at >= self.ttl:
            self._entries.pop(key)
            self._miss("ttl")
            return None
        self._entries.put(key, manifest)       # LRU promotion
        self.stats.hits += 1
        return manifest

    def commit(self, manifest: CheckManifest) -> None:
        """Store (or refresh) the manifest for its ``(vm, module)``."""
        self._entries.put((manifest.vm_name, manifest.module_name),
                          manifest)

    def invalidate(self, vm_name: str | None = None,
                   module_name: str | None = None, *,
                   reason: str) -> int:
        """Drop manifests for a VM / a (vm, module) / everything.

        Returns the number of entries removed; the count is also
        recorded under ``reason`` in :attr:`stats` (only when nonzero,
        so an invalidation storm against an empty store stays silent
        in the metrics).
        """
        if vm_name is None:
            doomed = self._entries.keys()
        elif module_name is None:
            doomed = [k for k in self._entries.keys() if k[0] == vm_name]
        else:
            key = (vm_name, module_name)
            doomed = [key] if key in self._entries else []
        for key in doomed:
            self._entries.pop(key)
        if doomed:
            self.stats.invalidations[reason] = \
                self.stats.invalidations.get(reason, 0) + len(doomed)
        return len(doomed)
