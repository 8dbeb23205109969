"""Relative-virtual-address adjustment — the paper's Algorithm 2.

Two clean copies of a module loaded at different bases differ exactly
at the 32-bit slots the loader rebased. Integrity-Checker cannot hash
the raw bytes; it first *reverses* relocation: wherever the two byte
streams differ it assumes an absolute address starts nearby, computes
``RVA = absolute - base`` on both sides, and if the RVAs agree replaces
both 4-byte slots with the RVA — restoring base-independent content
(Fig. 4 of the paper).

Two implementations:

``adjust_rva_faithful``
    The paper's pseudocode, literally: the start-of-address offset is
    derived *once* from the first differing byte of the two base
    addresses, and the scan steps over each difference window. The
    heuristic is sound for genuine relocation slots — two sums
    ``rva + base1`` / ``rva + base2`` first differ exactly at the
    bases' first differing byte (lower bytes are equal, so carries into
    it are equal) — but it gives up entirely when the bases happen to
    share all four bytes, and its fixed offset can misfire on bytes an
    attacker changed. The paper's line 22 reads
    ``j ← j − offset + 1 − 4``, which walks backwards — an obvious typo
    for *advancing past* the 4-byte slot; we implement the advance.

``adjust_rva_robust``
    No assumption about where the address starts: every candidate start
    in the 4-byte window before a difference is tried and accepted iff
    both sides yield the *same, plausible* RVA. The scan itself is
    :func:`scan_slots`, one numpy kernel that the forensic diff
    (:mod:`repro.forensics.diff`) classifies its hunks from too.

``adjust_rva_pool``
    The robust rule over every pair of a pool's copies of one section:
    :func:`scan_pool` reads only the columns where some copy differs
    from the first (every pair's differences lie there) and tests each
    cluster head against RVAs computed once per copy. A pair it settles
    has byte-equal adjusted copies, so none are built; only the pairs
    it cannot settle in bulk go through ``adjust_rva_robust`` one at a
    time. Its per-chunk arrays (one entry per pair and differing
    column) are bounded by :data:`POOL_CHUNK_BYTES`.

Both return new buffers plus :class:`RvaAdjustStats`; a difference
window no candidate start can explain is counted in ``unresolved`` —
for clean modules that count is 0, and tampering shows up both as
``unresolved`` windows and as a final hash mismatch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "RvaAdjustStats",
    "first_differing_base_byte",
    "adjust_rva_faithful",
    "adjust_rva_robust",
    "SlotScan",
    "scan_slots",
    "PoolChunk",
    "scan_pool",
    "PoolPair",
    "adjust_rva_pool",
    "ADJUSTERS",
]

_U32 = struct.Struct("<I")


@dataclass
class RvaAdjustStats:
    """Outcome counters of one adjustment pass."""

    replaced: int = 0      # address slots rewritten to their RVA
    unresolved: int = 0    # difference windows no RVA could explain
    windows: int = 0       # difference windows examined

    @property
    def clean(self) -> bool:
        """True when every difference was explained by relocation."""
        return self.unresolved == 0


def first_differing_base_byte(base1: int, base2: int) -> int | None:
    """0-based index of the first differing byte of two LE base addresses.

    ``None`` when the bases are identical (no adjustment needed —
    identical bases produce identical clean images). This is the
    paper's ``offset`` (theirs is 1-based).
    """
    b1 = _U32.pack(base1 & 0xFFFFFFFF)
    b2 = _U32.pack(base2 & 0xFFFFFFFF)
    for i in range(4):
        if b1[i] != b2[i]:
            return i
    return None


def adjust_rva_faithful(data1: bytes, base1: int, data2: bytes, base2: int,
                        *, max_rva: int | None = None,
                        ) -> tuple[bytes, bytes, RvaAdjustStats]:
    """The paper's Algorithm 2, byte-for-byte.

    ``max_rva`` bounds plausible RVAs (defaults to the section length
    times 16 — generous, since code references data in sibling
    sections); implausible RVAs are treated as unresolved rather than
    rewritten, which keeps tampered bytes visible to the hash.
    """
    if len(data1) != len(data2):
        raise ValueError("section copies differ in length")
    out1, out2 = bytearray(data1), bytearray(data2)
    stats = RvaAdjustStats()
    d = first_differing_base_byte(base1, base2)
    if d is None:                       # IsDifferenceExist == 0
        return bytes(out1), bytes(out2), stats
    limit = max_rva if max_rva is not None else max(len(data1) * 16, 1 << 20)
    n = len(out1)
    j = 0
    while j < n:
        if out1[j] != out2[j]:
            stats.windows += 1
            start = j - d               # paper: j - offset + 1, 0-based
            if 0 <= start and start + 4 <= n:
                abs1 = _U32.unpack_from(out1, start)[0]
                abs2 = _U32.unpack_from(out2, start)[0]
                rva1 = (abs1 - base1) & 0xFFFFFFFF
                rva2 = (abs2 - base2) & 0xFFFFFFFF
                if rva1 == rva2 and rva1 < limit:
                    _U32.pack_into(out1, start, rva1)
                    _U32.pack_into(out2, start, rva2)
                    stats.replaced += 1
                    j = start + 4       # paper line 22 (with the sign fixed)
                    continue
            stats.unresolved += 1
            j = max(j + 1, start + 4 if start >= 0 else j + 1)
            continue
        j += 1
    return bytes(out1), bytes(out2), stats


class SlotScan(NamedTuple):
    """Outcome of :func:`scan_slots`, one entry per difference window."""

    window: np.ndarray     # byte position of the window, ascending
    start: np.ndarray      # accepted slot start, -1 when unresolved
    rva: np.ndarray        # the slot's RVA (0 when unresolved)


_SLOT = np.arange(4)
_RVA4 = np.dtype((np.void, 16))     # four u32 RVAs as one item


def scan_slots(data1: bytes, base1: int, data2: bytes, base2: int,
               limit: int) -> SlotScan:
    """The robust rule's greedy left-to-right scan, vectorised.

    A differing byte ``j`` opens a window unless an accepted slot covers
    it; of the starts ``j-3..j``, the earliest whose two u32 values
    decode to one RVA below ``limit`` is accepted and consumes 4 bytes.
    One numpy pass tests every start on the original bytes. That test
    also holds for the first difference after a gap of 4 or more bytes:
    the only starts that could see a previous slot's rewritten bytes
    would need the bases to share more low bytes than that slot's own
    first difference allows. So a cluster of differences settled by its
    first window is resolved in bulk; the rest go through :func:`_greedy`.
    """
    a1, a2 = np.frombuffer(data1, np.uint8), np.frombuffer(data2, np.uint8)
    diffs = np.flatnonzero(a1 != a2)
    if not diffs.size:
        return SlotScan(diffs, diffs, diffs)
    b1, b2 = base1 & 0xFFFFFFFF, base2 & 0xFFFFFFFF
    shape = (max(a1.size - 3, 0),)
    rva = np.ndarray(shape, "<u4", a1, 0, (1,)) - np.uint32(b1)
    accept = rva == np.ndarray(shape, "<u4", a2, 0, (1,)) - np.uint32(b2)
    accept &= rva < limit
    pad = np.zeros(3, dtype=bool)
    hits = np.concatenate((pad, accept, pad))[diffs[:, None] + _SLOT]
    first = np.where(hits.any(axis=1), diffs - 3 + hits.argmax(axis=1), -1)
    # index -1 (unresolved) reads the appended 0
    first_rva = np.append(rva, np.uint32(0))[first].astype(np.int64)

    gap = np.flatnonzero(diffs[1:] - diffs[:-1] > 3) + 1
    heads = np.concatenate(((0,), gap))
    tails = np.concatenate((gap, (diffs.size,))) - 1
    settled = (first[heads] >= 0) & (diffs[tails] <= first[heads] + 3)
    window = np.zeros(diffs.size, dtype=bool)
    window[heads[settled]] = True
    if not settled.all():
        tangled = np.flatnonzero(np.repeat(~settled, tails - heads + 1))
        at, starts, rvas = _greedy(
            tangled.tolist(), diffs[tangled].tolist(),
            first[tangled].tolist(), first_rva[tangled].tolist(),
            accept, rva, a1, a2, b1, b2, limit)
        window[at] = True
        first[at], first_rva[at] = starts, rvas
    return SlotScan(diffs[window], first[window], first_rva[window])


def _greedy(at: list[int], diffs: list[int], first: list[int],
            first_rva: list[int], accept: np.ndarray, rva: np.ndarray,
            a1: np.ndarray, a2: np.ndarray, b1: int, b2: int, limit: int,
            ) -> tuple[list[int], list[int], list[int]]:
    """Slot-by-slot consumption of the clusters no one window settles.

    Returns the windows' diff indices, slot starts and RVAs. A window
    whose starts reach back into the previous slot re-tests those starts
    on that slot's *rewritten* bytes (its RVA, equal on both sides), as
    an in-place per-byte scan sees them; the others keep ``first``.
    """
    windows: list[int] = []
    starts: list[int] = []
    rvas: list[int] = []
    end = last = -8                     # last byte and start of last slot
    rewritten = b""                     # the last slot's bytes, both sides
    for i, j, found, value in zip(at, diffs, first, first_rva):
        if j <= end:
            continue
        if j - 3 <= end:
            found, value = -1, 0
            for c in range(j - 3, min(j, a1.size - 4) + 1):
                if c > end:
                    ok, r = accept[c], int(rva[c])
                else:
                    keep = rewritten[c - last:]
                    r = (int.from_bytes(keep + a1[end + 1:c + 4].tobytes(),
                                        "little") - b1) & 0xFFFFFFFF
                    ok = r < limit and r == (int.from_bytes(
                        keep + a2[end + 1:c + 4].tobytes(), "little")
                        - b2) & 0xFFFFFFFF
                if ok:
                    found, value = c, r
                    break
        windows.append(i)
        starts.append(found)
        rvas.append(value)
        if found >= 0:
            last, end = found, found + 3
            rewritten = value.to_bytes(4, "little")
    return windows, starts, rvas


def adjust_rva_robust(data1: bytes, base1: int, data2: bytes, base2: int,
                      *, max_rva: int | None = None,
                      ) -> tuple[bytes, bytes, RvaAdjustStats]:
    """Candidate-window search; no base-byte-pattern assumption.

    :func:`scan_slots` finds the slots; one fancy-indexed store per side
    writes their RVAs.
    """
    if len(data1) != len(data2):
        raise ValueError("section copies differ in length")
    if base1 == base2:
        return bytes(data1), bytes(data2), RvaAdjustStats()
    limit = max_rva if max_rva is not None else max(len(data1) * 16, 1 << 20)
    scan = scan_slots(data1, base1, data2, base2, limit)
    hit = scan.start >= 0
    slots, windows = scan.start[hit], len(scan.window)
    index = slots[:, None] + _SLOT
    # a later slot overlapping this one overwrites its tail, as in place
    fresh = index < np.concatenate((slots[1:], (len(data1),)))[:, None]
    value = scan.rva[hit].astype("<u4").view(np.uint8).reshape(-1, 4)
    out1, out2 = (np.frombuffer(d, np.uint8).copy() for d in (data1, data2))
    out1[index[fresh]] = out2[index[fresh]] = value[fresh]
    return out1.tobytes(), out2.tobytes(), RvaAdjustStats(
        replaced=len(slots), unresolved=windows - len(slots), windows=windows)


#: Bytes of one :func:`scan_pool` chunk's RVA gather per side, 16 per
#: pair and differing column: the bound on the scan's per-chunk arrays.
POOL_CHUNK_BYTES = 64 * 1024


class PoolChunk(NamedTuple):
    """One chunk of :func:`scan_pool`: a run of consecutive pairs."""

    pairs: np.ndarray        # indices into the caller's pair list
    windows: np.ndarray      # difference windows per pair
    settled: np.ndarray      # False: a cluster no one window settles


def scan_pool(rows: np.ndarray, bases: Sequence[int], pairs: np.ndarray,
              limits: np.ndarray) -> Iterator[PoolChunk]:
    """:func:`scan_slots`'s bulk test over many pairs, on sparse columns.

    ``rows`` is a t×n ``uint8`` matrix of one section's copies (n ≥ 4),
    ``bases`` their load bases, ``pairs`` a P×2 array of row indices and
    ``limits`` each pair's RVA bound.

    Columns: one pass finds the m columns where any copy differs from
    row 0. Two rows can only differ where one of them differs from
    row 0, so every pair's differences, clusters (a gap of more than 3
    bytes splits them), heads and tails lie on those columns, and
    nothing else is read per pair. Each copy's RVA (its u32 minus its
    base) at the candidate starts ``d-3..d`` of each such column is
    computed once per row; a cluster head tests its four starts by
    looking both rows up, a start before the row or past ``n-4`` masked
    out. Clusters are found per pair, so none crosses a pair and the
    cluster-split argument of :func:`scan_slots` holds unchanged.

    Settled ⇒ equal: a cluster is settled when its head accepts a slot
    that covers its tail. Every differing byte of a settled pair then
    lies inside its cluster's slot, which both sides rewrite with the
    same RVA (a later slot overlapping it starts past the cluster's
    tail), so the pair's adjusted copies are byte-equal and its stats
    are ``windows == replaced``, ``unresolved == 0``: no adjusted row
    is built. A pair holding a cluster no one window settles is
    reported unsettled; the caller runs it through
    :func:`adjust_rva_robust`.

    Memory: besides ``rows``, one n-byte mask, the t×m differing
    columns and a t×m×4 u32 RVA table per call. Pairs are chunked so
    that pairs × m × 16 stays within :data:`POOL_CHUNK_BYTES` (always
    at least one pair per chunk). A pair has at most one cluster head
    per differing column, so that bounds each side's gather of four
    u32 RVAs per head, and every other per-chunk array is smaller.
    """
    rows = np.ascontiguousarray(rows)
    t, n = rows.shape
    differs = np.zeros(n, dtype=bool)
    for row in rows[1:]:
        differs |= row != rows[0]
    cols = np.flatnonzero(differs)
    m = cols.size
    sub = rows[:, cols]
    start = cols[:, None] - 3 + _SLOT
    base = np.array([b & 0xFFFFFFFF for b in bases], np.uint32)
    u32 = np.ndarray((t, n - 3), "<u4", rows, 0, (n, 1))
    # copy i's RVAs at column k's four starts: item i*m+k, 16 bytes
    rva = np.empty((t, m, 4), np.uint32)
    for s in range(4):
        np.subtract(u32[:, np.clip(start[:, s], 0, n - 4)], base[:, None],
                    out=rva[:, :, s])
    rva = rva.view(_RVA4).reshape(-1)
    # only the first and last three columns have a start off the row
    inner = np.searchsorted(cols, (3, n - 3))
    valid = (start >= 0) & (start <= n - 4)
    # near[s-1][k]: column k+s lies within 3 bytes of column k
    near = [cols[s:] - cols[:-s] <= 3 for s in (1, 2, 3)]
    step = max(1, POOL_CHUNK_BYTES // (16 * max(m, 1)))
    for lo in range(0, len(pairs), step):
        ia, ib = pairs[lo:lo + step, 0], pairs[lo:lo + step, 1]
        diff = sub[ia] != sub[ib]
        # a head has no difference of its pair in the 3 bytes before
        # it, a tail none in the 3 after it
        before = np.zeros_like(diff)
        after = np.zeros_like(diff)
        for s, close in zip((1, 2, 3), near):
            before[:, s:] |= diff[:, :-s] & close
            after[:, :-s] |= diff[:, s:] & close
        head = np.greater(diff, before, out=before)
        hp = np.repeat(np.arange(len(ia)), np.count_nonzero(head, axis=1))
        hk = np.flatnonzero(head) - hp * m
        tk = np.flatnonzero(np.greater(diff, after, out=after)) - hp * m
        ra = rva[ia[hp] * m + hk].view(np.uint32).reshape(-1, 4)
        hits = ra == rva[ib[hp] * m + hk].view(np.uint32).reshape(-1, 4)
        hits &= ra < limits[lo + hp, None]
        edge = np.flatnonzero((hk < inner[0]) | (hk >= inner[1]))
        hits[edge] &= valid[hk[edge]]
        # the earliest accepted start is the lowest set byte of the
        # four flags read as one little-endian u32
        flags = hits.view("<u4").reshape(-1)
        low = flags & (0 - flags)
        first = cols[hk] - 3 + (low > 1) + (low > 0x100) + (low > 0x10000)
        good = (flags != 0) & (cols[tk] <= first + 3)
        yield PoolChunk(np.arange(lo, lo + len(ia)),
                        np.bincount(hp, minlength=len(ia)),
                        np.bincount(hp[~good], minlength=len(ia)) == 0)


class PoolPair(NamedTuple):
    """One pair's outcome of :func:`adjust_rva_pool`."""

    stats: RvaAdjustStats
    #: both adjusted copies, or None when they are byte-equal
    adjusted: tuple[bytes, bytes] | None


def adjust_rva_pool(rows: np.ndarray, bases: Sequence[int],
                    pairs: Sequence[tuple[int, int]],
                    limits: Sequence[int]) -> list[PoolPair]:
    """:func:`adjust_rva_robust` over many pairs of one section's copies.

    ``rows`` is a t×n ``uint8`` matrix of the copies and ``bases`` their
    load bases; pair k adjusts row i against row j of ``pairs[k]`` with
    ``max_rva=limits[k]``. Pairs with equal bases, sections shorter than
    a slot and pairs :func:`scan_pool` leaves unsettled go through
    :func:`adjust_rva_robust` itself; a pair the pool scan settles has
    byte-equal adjusted copies, so its outcome is its window count and
    ``adjusted=None``. The adjusted bytes are returned only where they
    differ.
    """
    out: list[PoolPair | None] = [None] * len(pairs)
    scan: list[int] = []
    for k, (i, j) in enumerate(pairs):
        if rows.shape[1] >= 4 and bases[i] != bases[j]:
            scan.append(k)
        else:
            out[k] = _robust_pair(rows, bases, pairs[k], limits[k])
    if scan:
        table = np.array([pairs[k] for k in scan], np.intp)
        # every u32 RVA is below 2**32: a larger bound accepts them all
        bound = np.array([min(limits[k], 1 << 32) for k in scan], np.int64)
        for chunk in scan_pool(rows, bases, table, bound):
            for c, windows, settled in zip(chunk.pairs.tolist(),
                                           chunk.windows.tolist(),
                                           chunk.settled.tolist()):
                k = scan[c]
                out[k] = (PoolPair(RvaAdjustStats(replaced=windows,
                                                  windows=windows), None)
                          if settled else
                          _robust_pair(rows, bases, pairs[k], limits[k]))
    return out


def _robust_pair(rows: np.ndarray, bases: Sequence[int],
                 pair: tuple[int, int], limit: int) -> PoolPair:
    i, j = pair
    adj_a, adj_b, stats = adjust_rva_robust(
        rows[i].tobytes(), bases[i], rows[j].tobytes(), bases[j],
        max_rva=limit)
    return PoolPair(stats, None if adj_a == adj_b else (adj_a, adj_b))


#: Registry used by ModChecker's ``rva_mode`` option and the A3 ablation.
ADJUSTERS = {
    "faithful": adjust_rva_faithful,
    "robust": adjust_rva_robust,
}
