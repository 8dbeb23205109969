"""Simulated guest physical memory.

A guest's RAM is a sparse set of 4 KiB page frames, each a
``numpy.uint8`` array allocated on first touch. Sparseness matters: the
paper's testbed runs 15 guests, and only the frames holding kernel
structures, page tables and loaded modules are ever touched, so a full
flat allocation per guest would waste hundreds of megabytes (guide
rule: be easy on the memory).

All cross-page reads/writes are chunked per frame; callers that need a
page at a time (libvmi's access pattern, see paper §V-C: "Module-Searcher
has to access the memory by pages") use :meth:`read_frame`.
"""

from __future__ import annotations

import numpy as np

from ..errors import PhysicalAddressError

__all__ = ["PAGE_SIZE", "PhysicalMemory", "FrameAllocator"]

PAGE_SIZE = 0x1000
PAGE_SHIFT = 12

#: the contents of an untouched frame (read-only, shared)
_ZERO_FRAME = np.zeros(PAGE_SIZE, dtype=np.uint8)
_ZERO_FRAME.flags.writeable = False


class PhysicalMemory:
    """Sparse byte-addressable physical memory of one guest."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise ValueError("size must be a positive multiple of 4 KiB")
        self.size = size_bytes
        self.n_frames = size_bytes // PAGE_SIZE
        self._frames: dict[int, np.ndarray] = {}
        #: Optional ``(frame_no, offset, length)`` callback fired before
        #: any mutation of a frame — the hook the hypervisor uses to
        #: model EPT write-protection traps. Memory knows nothing about
        #: domains; whoever installs the observer does the filtering.
        self.write_observer = None

    # -- frame-level access -----------------------------------------------------

    def _frame(self, frame_no: int, *, create: bool) -> np.ndarray | None:
        if not (0 <= frame_no < self.n_frames):
            raise PhysicalAddressError(
                f"frame {frame_no:#x} beyond installed memory "
                f"({self.n_frames:#x} frames)")
        frame = self._frames.get(frame_no)
        if frame is None and create:
            frame = np.zeros(PAGE_SIZE, dtype=np.uint8)
            self._frames[frame_no] = frame
        return frame

    def read_frame(self, frame_no: int) -> bytes:
        """Whole-page read; untouched frames read as zeros."""
        frame = self._frame(frame_no, create=False)
        return bytes(PAGE_SIZE) if frame is None else frame.tobytes()

    def frame_view(self, frame_no: int) -> np.ndarray:
        """Writable numpy view of one frame (allocating it).

        The view escapes the observer hook, so handing one out counts
        as a conservative whole-frame write: the caller *may* mutate
        any byte and write-protection must assume it did.
        """
        if self.write_observer is not None:
            self.write_observer(frame_no, 0, PAGE_SIZE)
        frame = self._frame(frame_no, create=True)
        assert frame is not None
        return frame

    def gather_frames(self, frame_nos) -> np.ndarray:
        """Copy many frames into one ``(n, PAGE_SIZE)`` uint8 matrix.

        The batched-acquisition primitive: one bounds check over the
        whole request, then one ``np.concatenate`` of the frames
        (untouched frames read as zeros) into a fresh, writable matrix,
        with no intermediate ``bytes`` objects.
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
        if not fnos.size:
            return np.zeros((0, PAGE_SIZE), dtype=np.uint8)
        get = self._frames.get
        return np.concatenate(
            [get(frame_no, _ZERO_FRAME) for frame_no in fnos.tolist()]
        ).reshape(-1, PAGE_SIZE)

    # -- byte-level access ---------------------------------------------------------

    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical address ``paddr``."""
        if paddr < 0 or length < 0 or paddr + length > self.size:
            raise PhysicalAddressError(
                f"read [{paddr:#x}, {paddr + length:#x}) outside memory")
        offset = paddr & (PAGE_SIZE - 1)
        if offset + length <= PAGE_SIZE:
            # one frame (a page-table entry, a pointer): no assembly
            frame = self._frames.get(paddr >> PAGE_SHIFT)
            return bytes(length) if frame is None \
                else frame[offset:offset + length].tobytes()
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

    def read_into(self, paddr: int, out) -> None:
        """Read ``len(out)`` bytes at ``paddr`` straight into ``out``.

        ``out`` is any writable buffer (a ``memoryview`` slice of the
        caller's output array, typically): frame contents are copied in
        with numpy slice assignment, so no intermediate ``bytes`` object
        is ever materialised — the allocation-free twin of :meth:`read`.
        """
        view = np.frombuffer(out, dtype=np.uint8)
        length = view.size
        if paddr < 0 or paddr + length > self.size:
            raise PhysicalAddressError(
                f"read [{paddr:#x}, {paddr + length:#x}) outside memory")
        pos = 0
        while pos < length:
            addr = paddr + pos
            frame_no, offset = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
            n = min(PAGE_SIZE - offset, length - pos)
            frame = self._frame(frame_no, create=False)
            view[pos:pos + n] = 0 if frame is None \
                else frame[offset:offset + n]
            pos += n

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` at physical address ``paddr``."""
        length = len(data)
        if paddr < 0 or paddr + length > self.size:
            raise PhysicalAddressError(
                f"write [{paddr:#x}, {paddr + length:#x}) outside memory")
        view = memoryview(data)
        pos = 0
        while pos < length:
            addr = paddr + pos
            frame_no, offset = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
            n = min(PAGE_SIZE - offset, length - pos)
            if self.write_observer is not None:
                self.write_observer(frame_no, offset, n)
            frame = self._frame(frame_no, create=True)
            assert frame is not None
            frame[offset:offset + n] = np.frombuffer(view[pos:pos + n],
                                                     dtype=np.uint8)
            pos += n

    # -- stats ------------------------------------------------------------------------

    @property
    def frames_touched(self) -> int:
        """Number of frames actually materialised."""
        return len(self._frames)

    def resident_bytes(self) -> int:
        return self.frames_touched * PAGE_SIZE


class FrameAllocator:
    """Bump allocator for free physical frames.

    ``reserve_low`` frames are kept for firmware/kernel fixed structures
    (mirroring how real kernels avoid low memory). Frames are never
    freed — guests in this simulation only ever load modules.
    """

    def __init__(self, memory: PhysicalMemory, reserve_low: int = 16) -> None:
        self.memory = memory
        self._next = reserve_low

    def alloc(self, n_frames: int = 1) -> int:
        """Allocate ``n_frames`` contiguous frames; return first frame no."""
        if n_frames <= 0:
            raise ValueError("n_frames must be positive")
        if self._next + n_frames > self.memory.n_frames:
            raise PhysicalAddressError("out of physical frames")
        first = self._next
        self._next += n_frames
        return first

    @property
    def frames_used(self) -> int:
        return self._next
