"""Restore-on-tamper remediation — self-healing pools.

Detection (the rest of :mod:`repro.core`) ends at a verdict; an
operator still has a tampered guest. This module closes the loop the
way MemoryRanger-style systems do: reconstruct the clean image from the
pool's majority reference, write back **only** the bytes the forensic
differ cannot explain, and re-verify — all through a privileged
hypervisor write path (:meth:`repro.vmi.core.VMIInstance.write_va_range`)
that is distinct from the guest-side write path attacks use.

The engine is deliberately paranoid, because a repair that writes the
wrong bytes — or the right bytes to the wrong place — is itself memory
corruption:

* **Target attestation** before any write: the suspect's mapping must
  agree with the majority on image size, sit on a page boundary, and
  must not alias another listed module's range. An AV-blinding attack
  that spoofs the LDR ``DllBase`` to point the repair engine at an
  innocent module is caught here and the remediation **aborts** — it is
  recorded, never silently "repaired".
* **Relocation-aware reconstruction**: the clean bytes are the majority
  reference's image with its own ``.reloc`` fixups re-applied at the
  *victim's* load base, so a repaired module keeps its legitimate
  per-VM relocation differences. Writing the reference's raw bytes
  would corrupt every rebased slot; the base-collision case (equal
  bases, delta 0) degenerates to a plain byte restore.
* **A trap-armed write window**: the victim range is write-protected
  for the duration of the write-back, so a racing adversary re-tampering
  pages *during* the repair (the MemoryRanger race) is observed as
  trapped guest writes. The privileged path itself never traps — repair
  must not be blinded by its own writes.
* **Bounded retries**: every attempt ends in a full pool re-check; a
  verdict that stays dirty retries up to ``max_attempts`` and then —
  under the ``quarantine-on-repeat-failure`` policy — escalates to
  quarantine instead of looping forever. There are no silent repair
  failures: every terminal state is an audit event (``repair.verified``
  / ``repair.failed`` / ``repair.quarantined``).

MTTR — detection verdict to verified-clean re-check, on the simulated
clock — is recorded per remediation and aggregated in
:class:`RepairStats`, which is the benchmark axis the repair ablation
plots.

The acquisition half of every attempt — re-copying the suspect and the
majority reference before reconstruction, and the full re-verify after
the write — rides the checker's VMI sessions, so on a ``batch=True``
checker those multi-page image reads run on the vectorised acquisition
path with results identical to the scalar reference loop; only the
write-back itself stays per-page (it must interleave with the trap
window frame by frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..counters import Series, declare
from ..errors import (InsufficientPool, IntrospectionFault, PEError,
                      RetryExhausted, TransientFault)
from ..forensics.diff import diff_modules
from ..mem.physical import PAGE_SIZE
from ..pe.constants import DIR_BASERELOC
from ..pe.parser import PEImage
from ..pe.relocations import apply_relocations, parse_reloc_section
from .parser import ParsedModule
from .report import PoolReport
from .searcher import ModuleSearcher

if TYPE_CHECKING:
    from .modchecker import ModChecker

__all__ = ["REPAIR_POLICIES", "RemediationRecord", "RepairStats",
           "RepairEngine"]

#: The repair policies ModChecker (and the CLI) accept. ``detect-only``
#: is the historical behaviour: verdicts raise alerts, nothing is
#: written back. ``repair`` writes back and retries within the attempt
#: budget; ``quarantine-on-repeat-failure`` additionally escalates a
#: spent budget (or an aborted, un-repairable target) to quarantine.
REPAIR_POLICIES = ("detect-only", "repair", "quarantine-on-repeat-failure")


@dataclass
class RemediationRecord:
    """One tampered (vm, module) verdict carried to a terminal state.

    ``status`` is the terminal state: ``verified`` (re-check came back
    clean), ``failed`` (attempt budget spent, no quarantine policy),
    ``quarantined`` (budget spent or target un-repairable, escalated),
    or ``aborted`` (target attestation refused to write and no
    quarantine policy was armed). ``aborted`` additionally stays True
    whenever attestation refused, even when the terminal state is
    ``quarantined`` — the evidence bundle must show that no byte was
    written at a suspect target.
    """

    vm_name: str
    module_name: str
    status: str = "failed"
    attempts: int = 0
    reference_vm: str | None = None
    hunks_written: int = 0
    bytes_written: int = 0
    #: guest writes trapped inside the armed repair window (the racing
    #: adversary's footprint; ring overflow counts as at least one)
    raced_writes: int = 0
    detected_at: float = 0.0
    resolved_at: float | None = None
    reason: str | None = None
    #: region names the differ charged with unexplained hunks
    regions: tuple[str, ...] = ()
    aborted: bool = False

    @property
    def mttr(self) -> float | None:
        """Detect → verified-clean, in simulated seconds (or None)."""
        if self.status != "verified" or self.resolved_at is None:
            return None
        return self.resolved_at - self.detected_at

    def to_dict(self) -> dict:
        doc: dict[str, object] = {
            "vm": self.vm_name, "module": self.module_name,
            "status": self.status, "attempts": self.attempts,
            "hunks_written": self.hunks_written,
            "bytes_written": self.bytes_written,
            "raced_writes": self.raced_writes,
            "detected_at": self.detected_at,
            "regions": list(self.regions),
            "aborted": self.aborted,
        }
        if self.reference_vm is not None:
            doc["reference_vm"] = self.reference_vm
        if self.resolved_at is not None:
            doc["resolved_at"] = self.resolved_at
        if self.mttr is not None:
            doc["mttr"] = self.mttr
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RemediationRecord":
        return cls(vm_name=doc["vm"], module_name=doc["module"],
                   status=doc["status"], attempts=doc["attempts"],
                   reference_vm=doc.get("reference_vm"),
                   hunks_written=doc["hunks_written"],
                   bytes_written=doc["bytes_written"],
                   raced_writes=doc["raced_writes"],
                   detected_at=doc["detected_at"],
                   resolved_at=doc.get("resolved_at"),
                   reason=doc.get("reason"),
                   regions=tuple(doc.get("regions", ())),
                   aborted=doc.get("aborted", False))


_MTTR_HELP = ("Detect-to-verified-clean time over verified remediations "
              "(simulated clock)")


@declare(
    Series("modchecker_repair_attempts_total",
           "Write-back remediation attempts", "attempts"),
    *(Series("modchecker_repair_outcomes_total",
             "Terminal remediation outcomes by status", status,
             {"status": status})
      for status in ("verified", "failed", "quarantined", "aborted")),
    Series("modchecker_repair_hunks_written_total",
           "Tamper/structural hunks written back to guests", "hunks_written"),
    Series("modchecker_repair_bytes_written_total",
           "Guest bytes written back by the repair engine", "bytes_written"),
    Series("modchecker_repair_raced_writes_total",
           "Guest writes trapped inside armed repair windows",
           "raced_writes"),
    Series("modchecker_repair_mttr_seconds", _MTTR_HELP, "mttr_mean",
           {"stat": "mean"}, kind="gauge"),
    Series("modchecker_repair_mttr_seconds", _MTTR_HELP, "mttr_max",
           {"stat": "max"}, kind="gauge"))
@dataclass
class RepairStats:
    """Cumulative remediation counters (published by the metrics)."""

    attempts: int = 0
    verified: int = 0
    failed: int = 0
    quarantined: int = 0
    aborted: int = 0
    hunks_written: int = 0
    bytes_written: int = 0
    raced_writes: int = 0
    mttr_sum: float = 0.0
    mttr_count: int = 0
    mttr_max: float = field(default=0.0, metadata={"fold": max})

    def note(self, record: RemediationRecord) -> None:
        """Fold one terminal record into the cumulative counters."""
        if record.status == "verified":
            self.verified += 1
        elif record.status == "quarantined":
            self.quarantined += 1
        else:
            self.failed += 1
        if record.aborted:
            self.aborted += 1
        self.hunks_written += record.hunks_written
        self.bytes_written += record.bytes_written
        self.raced_writes += record.raced_writes
        mttr = record.mttr
        if mttr is not None:
            self.mttr_sum += mttr
            self.mttr_count += 1
            self.mttr_max = max(self.mttr_max, mttr)

    @property
    def mttr_mean(self) -> float:
        return self.mttr_sum / self.mttr_count if self.mttr_count else 0.0


class _AttestationRefused(Exception):
    """Target attestation refused to write (carries the reason)."""


class RepairEngine:
    """Turns tamper verdicts into verified write-back remediations."""

    def __init__(self, checker: "ModChecker", *, max_attempts: int = 3,
                 quarantine: bool = False,
                 max_hunks_per_region: int = 4096) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.checker = checker
        self.max_attempts = max_attempts
        #: escalate a spent budget / un-repairable target to quarantine
        self.quarantine = quarantine
        #: forensic-diff hunk cap for the remediation record; generous,
        #: because a dropped hunk here only truncates *reporting* — the
        #: write plan itself is computed against the reconstruction
        self.max_hunks_per_region = max_hunks_per_region
        self.stats = RepairStats()
        #: escalation hook ``(vm, module, reason)``; the daemon wires
        #: this to its circuit breakers so a quarantined VM actually
        #: leaves the voting pool
        self.on_quarantine: Callable[[str, str, str], None] | None = None

    # -- entry point ---------------------------------------------------------

    def remediate_pool(self, module_name: str, report: PoolReport,
                       vms: list[str], *,
                       detected_at: float) -> list[RemediationRecord]:
        """Remediate every flagged VM of one pool verdict.

        Called by :meth:`ModChecker.check_pool` under its re-entrancy
        guard; degraded VMs are skipped (there is nothing to write to a
        guest we cannot even read).
        """
        records = []
        for vm_name in sorted(report.flagged()):
            if vm_name in report.degraded:
                continue
            records.append(self.remediate_vm(module_name, vm_name, vms,
                                             detected_at=detected_at))
        return records

    def remediate_vm(self, module_name: str, vm_name: str,
                     vms: list[str], *,
                     detected_at: float) -> RemediationRecord:
        """Drive one tampered (vm, module) to a terminal state."""
        events = self.checker.obs.events
        record = RemediationRecord(vm_name=vm_name,
                                   module_name=module_name,
                                   detected_at=detected_at)
        for attempt in range(1, self.max_attempts + 1):
            record.attempts = attempt
            record.reason = None          # each attempt explains itself
            self.stats.attempts += 1
            try:
                verified = self._attempt(module_name, vm_name, vms, record)
            except _AttestationRefused as refused:
                record.aborted = True
                record.reason = f"aborted: {refused}"
                if events.enabled:
                    events.emit("repair.failed", vm=vm_name,
                                module=module_name, attempt=attempt,
                                reason=record.reason)
                break
            if verified:
                record.status = "verified"
                record.resolved_at = self.checker.hv.clock.now
                if events.enabled:
                    events.emit("repair.verified", vm=vm_name,
                                module=module_name, attempts=attempt,
                                mttr=record.mttr)
                break
            record.reason = record.reason or "re-verification still flagged"
            if events.enabled:
                events.emit("repair.failed", vm=vm_name,
                            module=module_name, attempt=attempt,
                            reason=record.reason)
        if record.status != "verified" and self.quarantine:
            record.status = "quarantined"
            reason = record.reason or "repair retry budget exhausted"
            if events.enabled:
                events.emit("repair.quarantined", vm=vm_name,
                            module=module_name, attempts=record.attempts,
                            reason=reason)
            if self.on_quarantine is not None:
                self.on_quarantine(vm_name, module_name, reason)
        self.stats.note(record)
        return record

    # -- one attempt ---------------------------------------------------------

    def _attempt(self, module_name: str, vm_name: str, vms: list[str],
                 record: RemediationRecord) -> bool:
        """One acquire → attest → reconstruct → write → re-verify pass.

        Returns True when the re-check came back clean. Raises
        :class:`_AttestationRefused` when the target must not be
        written at all (terminal for every attempt).
        """
        checker = self.checker
        events = checker.obs.events
        parsed, _, _, failed = checker.fetch_modules(module_name, vms)
        by_vm = {p.vm_name: p for p in parsed}
        suspect = by_vm.get(vm_name)
        if suspect is None:
            record.reason = (f"suspect copy unavailable: "
                             f"{failed.get(vm_name, 'not loaded')}")
            return False
        if len(parsed) < 2:
            record.reason = "no reference copy available"
            return False

        # Fresh local vote over the copies just acquired: the pool may
        # have moved since the detection verdict (the racing adversary
        # counts on exactly that), so the reference choice and the
        # write plan must come from the same acquisition round.
        vote = checker.checker.check_pool(parsed)
        verdict = vote.verdicts.get(vm_name)
        if verdict is not None and verdict.clean:
            # Already back in agreement (e.g. a previous attempt's
            # write landed after the adversary's): just re-verify.
            return self._reverify(module_name, vm_name, vms)
        reference = self._pick_reference(vote, vm_name, by_vm)
        if reference is None:
            record.reason = "no clean majority reference"
            return False
        record.reference_vm = reference.vm_name

        self._attest_target(vm_name, suspect, reference)

        recon = self._reconstruct(suspect, reference)
        diffs = diff_modules(suspect, reference,
                             max_hunks_per_region=self.max_hunks_per_region)
        record.regions = tuple(d.region for d in diffs if not d.clean)

        segments = _clip_to_regions(_diff_segments(suspect.image, recon),
                                    suspect.all_regions())
        if events.enabled:
            events.emit("repair.attempted", vm=vm_name, module=module_name,
                        attempt=record.attempts,
                        reference=reference.vm_name,
                        hunks=len(segments),
                        bytes=sum(e - s for s, e in segments),
                        regions=list(record.regions))
        if segments:
            record.raced_writes += self._write_back(
                vm_name, suspect.base, recon, segments, record)
        # Whatever cached view existed of this (vm, module), the guest's
        # memory just changed under it: the fast path must be re-earned
        # through the full re-verification below.
        checker.invalidate_manifests(vm_name, module_name,
                                     reason="repaired")
        return self._reverify(module_name, vm_name, vms)

    # -- attestation ---------------------------------------------------------

    def _attest_target(self, vm_name: str, suspect: ParsedModule,
                       reference: ParsedModule) -> None:
        """Refuse to write unless the target mapping attests clean.

        The write plan is only as trustworthy as the (base, size) the
        guest's LDR entry reported — which the guest controls. An
        AV-blinding attack that points ``DllBase`` at another module
        would make a naive repairer "restore" an innocent range; every
        gate here raises :class:`_AttestationRefused` instead.
        """
        if len(suspect.image) != len(reference.image):
            raise _AttestationRefused(
                f"size-mismatch: suspect maps {len(suspect.image):#x} "
                f"bytes, majority reference {len(reference.image):#x}")
        if suspect.base % PAGE_SIZE:
            raise _AttestationRefused(
                f"unaligned base {suspect.base:#x}")
        searcher = ModuleSearcher(self.checker.vmi_for(vm_name))
        start, end = suspect.base, suspect.base + len(suspect.image)
        entry_seen = False
        for entry in searcher.list_modules():
            if entry.name == suspect.module_name:
                entry_seen = True
                if entry.dll_base != suspect.base:
                    raise _AttestationRefused(
                        f"entry drifted: DllBase now {entry.dll_base:#x}, "
                        f"acquired at {suspect.base:#x}")
                continue
            o_start = entry.dll_base
            o_end = entry.dll_base + entry.size_of_image
            if o_start < end and start < o_end:
                raise _AttestationRefused(
                    f"aliased-base: target range [{start:#x}, {end:#x}) "
                    f"overlaps listed module {entry.name!r} at "
                    f"[{o_start:#x}, {o_end:#x})")
        if not entry_seen:
            raise _AttestationRefused("suspect entry vanished from the "
                                      "loaded-module list")

    # -- reconstruction ------------------------------------------------------

    def _reconstruct(self, suspect: ParsedModule,
                     reference: ParsedModule) -> bytes:
        """The clean image as it should read at the *suspect's* base.

        The reference image carries fixups for the reference's own load
        base; re-applying its ``.reloc`` list with the inter-base delta
        reproduces exactly what the victim's loader produced, so clean
        relocated slots are never "repaired". A zero delta (base
        collision) is a plain byte restore.
        """
        recon = bytearray(reference.image)
        delta = suspect.base - reference.base
        if delta % (1 << 32):
            try:
                pe = PEImage(bytes(reference.image))
                directory = pe.optional_header.data_directories[
                    DIR_BASERELOC]
                if directory.size:
                    raw = reference.image[
                        directory.virtual_address:
                        directory.virtual_address + directory.size]
                    fixups = parse_reloc_section(bytes(raw))
                    apply_relocations(recon, fixups, delta)
            except PEError as exc:
                raise _AttestationRefused(
                    f"reference reconstruction failed: {exc}") from exc
            # One header walk + one pass over the fixup slots, priced
            # like the parser's local buffer pass.
            self.checker._charge(
                len(reference.image) * self.checker.costs.parse_per_byte)
        return bytes(recon)

    # -- the armed write window ----------------------------------------------

    def _write_back(self, vm_name: str, base: int, recon: bytes,
                    segments: list[tuple[int, int]],
                    record: RemediationRecord) -> int:
        """Write the plan under write-protection; count raced writes.

        The whole victim range is armed for the duration, so a guest
        write racing the repair is trapped (and routed onward to the
        checker's protection records — other modules' manifests on the
        same frames must still see it). The privileged writes below do
        not trap: the hypervisor's repair path bypasses the observer.
        """
        checker = self.checker
        vmi = checker.vmi_for(vm_name)
        # Route anything already pending so pre-window guest writes are
        # not charged to the repair race.
        checker.route_drained_traps(vm_name, *vmi.drain_traps())
        gfns = [g for g in vmi.protect_va_range(base, len(recon))
                if g is not None]
        armed = set(gfns)
        try:
            for seg_start, seg_end in segments:
                vmi.write_va_range(base + seg_start,
                                   recon[seg_start:seg_end])
                record.hunks_written += 1
                record.bytes_written += seg_end - seg_start
            traps, overflowed = vmi.drain_traps()
            checker.route_drained_traps(vm_name, traps, overflowed)
            raced = sum(t.writes for t in traps if t.gfn in armed)
            if overflowed:
                raced = max(raced, 1)
            return raced
        finally:
            for gfn in gfns:
                checker.hv.unprotect_guest_frame(vm_name, gfn)

    # -- re-verification -----------------------------------------------------

    def _reverify(self, module_name: str, vm_name: str,
                  vms: list[str]) -> bool:
        """Full pool re-check; True iff the repaired VM votes clean."""
        try:
            outcome = self.checker.check_pool(module_name, vms=vms)
        except (InsufficientPool, TransientFault, RetryExhausted,
                IntrospectionFault):
            return False
        report = outcome.report
        verdict = report.verdicts.get(vm_name)
        return (verdict is not None and verdict.clean
                and vm_name not in report.degraded)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _pick_reference(vote: PoolReport, vm_name: str,
                        by_vm: dict[str, ParsedModule],
                        ) -> ParsedModule | None:
        """The majority's copy: first clean VM, else best-matching other."""
        for name in sorted(vote.clean_vms()):
            if name != vm_name and name in by_vm:
                return by_vm[name]
        best, best_matches = None, -1
        for name, verdict in sorted(vote.verdicts.items()):
            if name == vm_name or name not in by_vm:
                continue
            if verdict.matches > best_matches:
                best, best_matches = by_vm[name], verdict.matches
        return best


def _diff_segments(current: bytes, target: bytes,
                   join_gap: int = 8) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` runs where ``current != target``.

    Runs separated by fewer than ``join_gap`` equal bytes are merged:
    re-writing a handful of already-clean bytes is cheaper than an
    extra page-crossing write call.
    """
    if len(current) != len(target):
        raise ValueError("write plan requires equal-length images")
    a = np.frombuffer(bytes(current), dtype=np.uint8)
    b = np.frombuffer(bytes(target), dtype=np.uint8)
    mismatch = np.nonzero(a != b)[0]
    if mismatch.size == 0:
        return []
    segments: list[tuple[int, int]] = []
    start = prev = int(mismatch[0])
    for idx in mismatch[1:]:
        idx = int(idx)
        if idx - prev > join_gap:
            segments.append((start, prev + 1))
            start = idx
        prev = idx
    segments.append((start, prev + 1))
    return segments


def _clip_to_regions(segments: list[tuple[int, int]],
                     regions) -> list[tuple[int, int]]:
    """Restrict a write plan to the hashed (header + executable) regions.

    The reconstruction can only vouch for the bytes the integrity claim
    covers. Writable data legitimately differs between clones — IAT
    slots resolve against each VM's own exporter bases, ``.data`` is
    simply mutable — so a byte-wise plan over the whole image would
    "restore" the reference VM's import addresses into the victim.
    Everything outside the suspect's hashed regions is dropped here.
    """
    spans: list[list[int]] = []
    for start, end in sorted((r.start, r.end) for r in regions):
        if spans and start <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], end)
        else:
            spans.append([start, end])
    clipped: list[tuple[int, int]] = []
    for seg_start, seg_end in segments:
        for span_start, span_end in spans:
            lo = max(seg_start, span_start)
            hi = min(seg_end, span_end)
            if lo < hi:
                clipped.append((lo, hi))
    return clipped
