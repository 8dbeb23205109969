"""The introspection/processing cost model.

All Fig. 7–9 runtimes are simulated: each primitive operation charges a
fixed CPU cost to Dom0 through the hypervisor (which stretches it under
contention). The constants below are calibrated to the *relative*
magnitudes the paper reports, not to any absolute hardware:

* mapping a foreign guest frame (``xc_map_foreign_range`` + copy) is
  the expensive primitive — it dominates Module-Searcher, which "has to
  access the memory by pages; an action that requires an iterative
  access of the memory until the whole module is copied" (§V-C-1);
* page-table walks are two small mapped reads;
* parsing, MD5 hashing and RVA adjustment are local Dom0 buffer passes,
  costed per byte — cheap next to foreign mapping, which is why the
  paper's Fig. 7 shows Parser and Integrity-Checker almost flat.

Change the numbers and the figures rescale; the *shapes* (linearity,
component ordering, the Fig. 8 knee) are structural.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]

_US = 1e-6  # one microsecond, in seconds


@dataclass(frozen=True)
class CostModel:
    """Per-operation Dom0 CPU costs, in seconds."""

    # -- introspection primitives (charged by the VMI layer) ------------
    page_map: float = 120.0 * _US      # map one foreign frame + copy out
    translate_walk: float = 14.0 * _US  # PDE+PTE reads for one VA page
    small_read: float = 4.0 * _US      # bookkeeping per read call
    #: hypervisor-side checksum of one guest frame (hypercall + in-VMM
    #: hash at memory bandwidth) — no foreign mapping, no copy-out,
    #: which is the whole point of the incremental page sweep
    page_checksum: float = 9.0 * _US

    # -- Dom0-local processing (charged by ModChecker components) -------
    parse_per_byte: float = 0.0015 * _US   # header walk + section slicing
    hash_per_byte: float = 0.004 * _US     # MD5 over a local buffer
    rva_scan_per_byte: float = 0.006 * _US  # Algorithm 2 byte scan
    compare_per_pair: float = 30.0 * _US   # per-module-pair fixed overhead

    # -- event-driven monitoring (charged by the VMI layer) -------------
    #: arm EPT write-protection on one guest frame (one hypercall,
    #: amortised EPT walk; cheaper than a foreign mapping, pricier than
    #: a mapped read)
    page_protect: float = 6.0 * _US
    #: deliver one coalesced write trap out of the shared ring (Dom0
    #: side; the fixed ring-poll cost per drain is a ``small_read``)
    trap_deliver: float = 2.0 * _US

    # -- resilience (charged by the VMI retry layer) --------------------
    retry_probe: float = 8.0 * _US     # re-issue one failed guest read

    # -- remediation (charged by the repair engine via VMI) -------------
    #: privileged write of one guest frame's worth of bytes (map the
    #: frame writable + copy in + flush); pricier than a protect but
    #: cheaper than a full foreign-map copy-out, since the repair path
    #: writes only the tampered hunks, not whole images
    page_write: float = 18.0 * _US

    def range_read_cost(self, *, walked: int, mapped: int) -> float:
        """Aggregate cost of one batched VA-range read.

        Identical by construction to what the scalar per-page loop
        charges for the same read: ``walked`` translate walks plus
        ``mapped`` foreign maps plus the one ``small_read`` every read
        call pays. The batch path charges this in a single
        ``charge_dom0`` call — same total, one contention-stretch.
        """
        return (walked * self.translate_walk + mapped * self.page_map
                + self.small_read)

    def range_checksum_cost(self, *, walked: int, pages: int) -> float:
        """Aggregate cost of one batched page sweep over ``pages`` pages.

        The batched twin of per-page ``translate_walk`` +
        ``page_checksum`` charges (checksum sweeps pay no
        ``small_read`` — they move digests, not bytes).
        """
        return walked * self.translate_walk + pages * self.page_checksum


#: Shared default so every component prices work identically.
DEFAULT_COST_MODEL = CostModel()
