"""The dense pool scan that :func:`repro.core.rva.scan_pool` replaced.

Before the sparse scan, ``scan_pool`` gathered both full rows of every
pair of a (region, length) group, found clusters with shifted masks over
all of their bytes and wrote each settled slot into the gathered rows;
``adjust_rva_pool`` then returned the adjusted rows of every pair whose
rows still differed. Both are kept here verbatim (``oracle_`` names,
the chunk record as :class:`OraclePoolChunk`) as a differential oracle:
the sparse scan must reproduce their windows, settled flags and
``PoolPair`` outcomes, and every pair they settle must leave byte-equal
adjusted rows.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.rva import PoolPair, RvaAdjustStats, adjust_rva_robust

__all__ = ["OraclePoolChunk", "oracle_scan_pool", "oracle_pool_adjust"]

_SLOT = np.arange(4)

#: Bytes of pair rows one :func:`oracle_scan_pool` chunk gathers per side.
POOL_CHUNK_BYTES = 64 * 1024


class OraclePoolChunk(NamedTuple):
    """One chunk of :func:`oracle_scan_pool`: a run of consecutive pairs."""

    pairs: np.ndarray        # indices into the caller's pair list
    adjusted_a: np.ndarray   # one adjusted row per pair, first side
    adjusted_b: np.ndarray   # ... and second side
    windows: np.ndarray      # difference windows per pair
    settled: np.ndarray      # False: a cluster no one window settles


def oracle_scan_pool(rows: np.ndarray, bases: Sequence[int],
                     pairs: np.ndarray, limits: np.ndarray,
                     ) -> Iterator[OraclePoolChunk]:
    """:func:`~repro.core.rva.scan_slots` plus the slot writes, over many
    pairs at once.

    ``rows`` is a t×n ``uint8`` matrix of one section's copies (n ≥ 4),
    ``bases`` their load bases, ``pairs`` a P×2 array of row indices and
    ``limits`` each pair's RVA bound. Each chunk gathers its pairs' rows
    and lays them out with a stride of n+4, so every pair is followed by
    at least four agreeing seam bytes and no difference cluster crosses
    a pair: the cluster-split argument of ``scan_slots`` holds
    unchanged. Only cluster heads test their four candidate starts. A
    settled cluster is one resolved window, written into both rows with
    ``adjust_rva_robust``'s overwrite rule. A pair holding a cluster no
    one window settles is reported unsettled and its rows are left
    unadjusted; the caller runs it through ``adjust_rva_robust``.
    """
    rows = np.ascontiguousarray(rows)
    n = rows.shape[1]
    u32 = np.ndarray((rows.size - 3,), "<u4", rows, 0, (1,))
    base = np.array([b & 0xFFFFFFFF for b in bases], np.uint32)
    step = max(1, POOL_CHUNK_BYTES // n)
    for lo in range(0, len(pairs), step):
        ia, ib = pairs[lo:lo + step, 0], pairs[lo:lo + step, 1]
        out_a, out_b = rows[ia], rows[ib]
        diff = out_a != out_b
        # a head has no difference in the 3 bytes before it, a tail none
        # in the 3 after it; rows end at their pair, so no cluster
        # crosses one (the seam)
        near = np.zeros_like(diff)
        for k in (1, 2, 3):
            near[:, k:] |= diff[:, :-k]
        hp, hj = np.divmod(np.flatnonzero(np.greater(diff, near, out=near)),
                           n)
        near[:] = False
        for k in (1, 2, 3):
            near[:, :-k] |= diff[:, k:]
        tail = np.flatnonzero(np.greater(diff, near, out=near)) % n
        del diff, near
        start = hj[:, None] - 3 + _SLOT
        hits = (start >= 0) & (start <= n - 4)
        np.clip(start, 0, n - 4, out=start)
        ha, hb = ia[hp], ib[hp]
        ra = u32[(ha * n)[:, None] + start] - base[ha, None]
        hits &= ra == u32[(hb * n)[:, None] + start] - base[hb, None]
        hits &= ra < limits[lo + hp, None]
        del start, ra
        first = hj - 3 + hits.argmax(axis=1)
        good = hits.any(axis=1) & (tail <= first + 3)
        windows = np.bincount(hp, minlength=len(ia))
        settled = np.bincount(hp[~good], minlength=len(ia)) == 0
        keep = settled[hp]
        slots, sp = first[keep], hp[keep]
        value = u32[ia[sp] * n + slots] - base[ia[sp]]
        value = value.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
        # a later slot of the same pair overlapping this one overwrites
        # its tail; the next pair's slots lie beyond the seam
        at = sp * (n + 4) + slots
        fresh = at[:, None] + _SLOT < np.append(at[1:], at[-1:] + 4)[:, None]
        index = ((sp * n + slots)[:, None] + _SLOT)[fresh]
        out_a.reshape(-1)[index] = out_b.reshape(-1)[index] = value[fresh]
        yield OraclePoolChunk(np.arange(lo, lo + len(ia)), out_a, out_b,
                              windows, settled)


def oracle_pool_adjust(rows: np.ndarray, bases: Sequence[int],
                       pairs: Sequence[tuple[int, int]],
                       limits: Sequence[int]) -> list[PoolPair]:
    """``adjust_rva_robust`` over many pairs of one section's copies.

    ``rows`` is a t×n ``uint8`` matrix of the copies and ``bases`` their
    load bases; pair k adjusts row i against row j of ``pairs[k]`` with
    ``max_rva=limits[k]``. Pairs with equal bases, sections shorter than
    a slot and pairs :func:`oracle_scan_pool` leaves unsettled go through
    ``adjust_rva_robust`` itself; every other pair comes from the pool
    scan. The adjusted bytes are returned only where they differ.
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
        for chunk in oracle_scan_pool(rows, bases, table, bound):
            differ = (chunk.adjusted_a != chunk.adjusted_b).any(axis=1)
            for c, k in enumerate(chunk.pairs.tolist()):
                k = scan[k]
                if not chunk.settled[c]:
                    out[k] = _robust_pair(rows, bases, pairs[k], limits[k])
                    continue
                windows = int(chunk.windows[c])
                out[k] = PoolPair(
                    RvaAdjustStats(replaced=windows, windows=windows),
                    (chunk.adjusted_a[c].tobytes(),
                     chunk.adjusted_b[c].tobytes())
                    if differ[c] else None)
    return out


def _robust_pair(rows: np.ndarray, bases: Sequence[int],
                 pair: tuple[int, int], limit: int) -> PoolPair:
    i, j = pair
    adj_a, adj_b, stats = adjust_rva_robust(
        rows[i].tobytes(), bases[i], rows[j].tobytes(), bases[j],
        max_rva=limit)
    return PoolPair(stats, None if adj_a == adj_b else (adj_a, adj_b))
