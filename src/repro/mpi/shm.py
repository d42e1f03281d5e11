"""Shared-memory plumbing for the process-parallel execution backend.

The ``procs`` backend (:mod:`repro.mpi.backend`) runs every simulated
rank as an OS process, so envelope delivery can no longer be a direct
method call on the destination's :class:`~repro.mpi.transport.Mailbox`.
This module provides the two pieces of cross-process state it needs:

* :class:`ShmRing` — a multi-producer single-consumer ring buffer in a
  :class:`multiprocessing.shared_memory.SharedMemory` segment.  Each
  rank owns one ring; every peer encodes envelopes
  (:func:`dump_envelope`) into it and the
  owner's delivery thread drains it into the ordinary in-process
  mailbox, so the matching semantics (posted/unexpected queues,
  non-overtaking per channel) are byte-for-byte the thread backend's.
* :class:`SharedBlockTracker` — the
  :class:`~repro.mpi.transport.BlockTracker` API over lock-free
  per-rank slots in shared memory, so the parent's deadlock watchdog
  can observe every rank.

Memory-ordering note: the ring's ``head``/``tail`` are aligned 64-bit
counters.  The reader never consumes a record before the writer's
semaphore release (which is a full synchronisation point), and writers
read ``head`` only to bound free space — a stale value is merely
conservative.  The single racy access is the reader's 8-byte ``head``
store observed by writers, which is atomic for aligned 64-bit stores on
every platform CPython's ``mmap`` targets.
"""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import secrets
import struct
import time
from multiprocessing import shared_memory
from typing import Callable, List, Optional

import numpy as np

from .errors import AbortError
from .transport import Envelope

#: Default per-rank ring capacity (bytes of pickled envelope payload).
DEFAULT_RING_CAPACITY = 1 << 20

#: Records larger than this fraction of the ring spill to a dedicated
#: one-shot shared-memory segment (the ring then carries only its name).
_SPILL_FRACTION = 4

#: Writer back-off while the ring is full (wall seconds).
_PUSH_POLL = 0.0005

#: Ring header: two little-endian uint64 (head, tail), 8-byte aligned.
_HDR = 16

#: Record kinds (first byte of every record body).
_KIND_INLINE = b"I"
_KIND_SPILL = b"S"

#: Record header: body length (kind byte included), then the kind byte.
_REC = struct.Struct("<Ic")

#: Where POSIX shared memory shows up as files (spill-sweep fallback).
_SHM_DIR = "/dev/shm"


def _unlink_segment(name: str) -> bool:
    """Best-effort unlink of one named segment; True if it was removed."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - concurrent unlink
        return False
    return True


class ShmRing:
    """MPSC ring buffer over a shared-memory segment.

    One reader (the owning rank's delivery thread), many writers (every
    peer rank's sending thread).  Writers serialise on ``writer_lock``;
    the reader is lock-free and paced by ``data_sem``, which counts
    whole records.  ``head``/``tail`` are monotone byte offsets (they
    never wrap — positions are taken modulo the capacity), so free
    space is simply ``capacity - (tail - head)``.

    Oversized records (bigger than ``capacity // _SPILL_FRACTION``)
    spill into a dedicated one-shot ``SharedMemory`` segment created by
    the writer and unlinked by the reader, so the ring never deadlocks
    on a record that cannot fit.

    Spill segments are named ``<spill_prefix>_<pid>_<seq>`` — the
    prefix is fixed before any child forks, so the parent can find and
    unlink leftovers after a hard worker death (a writer that dies
    between creating its spill segment and publishing the ring record
    leaves a segment no reader will ever unlink; see
    :meth:`sweep_spills`).
    """

    def __init__(self, ctx, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 4096:
            raise ValueError(f"ring capacity too small: {capacity}")
        self.capacity = capacity
        self._shm = shared_memory.SharedMemory(
            create=True, size=_HDR + capacity
        )
        self._buf = self._shm.buf
        struct.pack_into("<QQ", self._buf, 0, 0, 0)
        self.writer_lock = ctx.Lock()
        self.data_sem = ctx.Semaphore(0)
        #: Job-unique namespace for this ring's spill segments;
        #: inherited by every forked writer.
        self.spill_prefix = f"reprospill{secrets.token_hex(6)}"
        self._spill_seq = itertools.count()

    # -- head/tail accessors ------------------------------------------

    def _head(self) -> int:
        return struct.unpack_from("<Q", self._buf, 0)[0]

    def _set_head(self, v: int) -> None:
        struct.pack_into("<Q", self._buf, 0, v)

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self._buf, 8)[0]

    def _set_tail(self, v: int) -> None:
        struct.pack_into("<Q", self._buf, 8, v)

    # -- circular byte copies -----------------------------------------

    def _write(self, pos: int, data: bytes) -> None:
        off = pos % self.capacity
        first = min(len(data), self.capacity - off)
        self._buf[_HDR + off:_HDR + off + first] = data[:first]
        rest = len(data) - first
        if rest:
            self._buf[_HDR:_HDR + rest] = data[first:]

    def _read(self, pos: int, n: int) -> bytes:
        off = pos % self.capacity
        first = min(n, self.capacity - off)
        out = bytes(self._buf[_HDR + off:_HDR + off + first])
        rest = n - first
        if rest:
            out += bytes(self._buf[_HDR:_HDR + rest])
        return out

    # -- producer side -------------------------------------------------

    def push(
        self,
        data: bytes,
        abort_event=None,
        give_up: Optional[Callable[[], bool]] = None,
        what: str = "send",
    ) -> bool:
        """Append one record; block (politely) while the ring is full.

        Raises :class:`AbortError` if ``abort_event`` fires while
        waiting for space; returns ``False`` (record dropped) when
        ``give_up()`` turns true — the backend passes "the destination
        rank has finished", in which case the message can never be
        received anyway.  Returns ``True`` on success.  A spill
        segment created for a record that is then dropped (or whose
        push aborts) is unlinked here — only *published* records hand
        unlink responsibility to the reader.
        """
        spill_name: Optional[str] = None
        if len(data) + _REC.size > self.capacity // _SPILL_FRACTION:
            spill_name, body = self._spill(data)
            header = _REC.pack(1 + len(body), _KIND_SPILL)
        else:
            body = data
            header = _REC.pack(1 + len(body), _KIND_INLINE)
        need = _REC.size + len(body)
        while True:
            with self.writer_lock:
                head = self._head()
                tail = self._tail()
                if self.capacity - (tail - head) >= need:
                    self._write(tail, header)
                    self._write(tail + _REC.size, body)
                    self._set_tail(tail + need)
                    break
            if abort_event is not None and abort_event.is_set():
                if spill_name is not None:
                    _unlink_segment(spill_name)
                raise AbortError(f"job aborted while blocked in {what}")
            if give_up is not None and give_up():
                if spill_name is not None:
                    _unlink_segment(spill_name)
                return False
            time.sleep(_PUSH_POLL)
        self.data_sem.release()
        return True

    def _spill(self, data: bytes) -> tuple:
        """Write ``data`` to a fresh named segment; (name, record body)."""
        name = f"{self.spill_prefix}_{os.getpid()}_{next(self._spill_seq)}"
        seg = shared_memory.SharedMemory(
            name=name, create=True, size=max(len(data), 1)
        )
        seg.buf[: len(data)] = data
        seg.close()
        return name, struct.pack("<Q", len(data)) + name.encode("ascii")

    # -- consumer side -------------------------------------------------

    def pop(self, timeout: float) -> Optional[bytes]:
        """Take one record, or ``None`` if nothing arrives in time
        (``timeout=0``: if none is there now)."""
        # A zero timeout still goes through sem_timedwait with the GIL
        # released (79-97 us a call here); the non-blocking form is 0.2 us.
        sem = self.data_sem
        got = sem.acquire(timeout=timeout) if timeout else sem.acquire(False)
        if not got:
            return None
        head = self._head()
        (n,) = struct.unpack("<I", self._read(head, 4))
        rec = self._read(head + 4, n)
        self._set_head(head + 4 + n)
        if rec[:1] == _KIND_SPILL:
            return self._unspill(rec[1:])
        return rec[1:]

    @staticmethod
    def _unspill(body: bytes) -> bytes:
        (size,) = struct.unpack("<Q", body[:8])
        name = body[8:].decode("ascii")
        seg = shared_memory.SharedMemory(name=name)
        try:
            return bytes(seg.buf[:size])
        finally:
            seg.close()
            seg.unlink()

    # -- lifecycle ------------------------------------------------------

    def drain_spills(self) -> None:
        """Unlink spill segments referenced by unread records.

        Called by the parent during cleanup so an aborted job does not
        leak shared-memory segments (the reader normally unlinks each
        spill as it consumes it).
        """
        while True:
            try:
                if self.pop(0) is None:
                    return
            except FileNotFoundError:  # pragma: no cover - defensive
                pass

    def orphaned_spills(self) -> List[str]:
        """Names of this ring's spill segments still present on disk.

        After :meth:`drain_spills` has consumed every published record,
        any remaining segment under this ring's prefix is an orphan: a
        writer died between creating it and publishing the record (or a
        reader died between reading the record and unlinking).  Only
        meaningful where POSIX shared memory is file-backed.
        """
        try:
            names = os.listdir(_SHM_DIR)
        except OSError:  # pragma: no cover - no /dev/shm
            return []
        return sorted(n for n in names if n.startswith(self.spill_prefix))

    def sweep_spills(self) -> int:
        """Unlink orphaned spill segments; returns how many were removed.

        The parent-side fallback for hard worker death: the reader
        normally unlinks each spill as it consumes it and
        :meth:`drain_spills` covers unread-but-published records, but a
        segment whose record never made it into the ring is reachable
        only by name.  The job-unique ``spill_prefix`` makes that
        lookup safe (no other job's segments can match).
        """
        return sum(1 for name in self.orphaned_spills()
                   if _unlink_segment(name))

    def destroy(self) -> None:
        """Release the segment (parent side, after every child exited)."""
        self._buf = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - defensive
            pass


#: Wire header after the kind byte: src, dst, cid, tag, nbytes,
#: wire_vtime, seq.
_ENV = struct.Struct("<iiQqqdq")
#: Payload kinds — the first byte of an encoded envelope, none of them
#: the procs backend's flush marker: ``None``; a numeric array, numpy
#: scalar or Python scalar as dtype + shape + raw bytes; else a pickle.
_NONE, _ARRAY, _NPSCALAR, _PYSCALAR, _PICKLE = b"N", b"A", b"G", b"S", b"P"


def dump_envelope(env) -> bytes:
    """Encode one :class:`~repro.mpi.transport.Envelope` for the wire.

    The single codec of the shm ring and the socket ``ENVELOPE`` frame:
    kind byte, fixed header, payload.  What a running exchange sends —
    numeric arrays, scalars, ``None`` — is never pickled.
    """
    head = _ENV.pack(
        env.src, env.dst, env.cid, env.tag, env.nbytes, env.wire_vtime,
        env.seq,
    )
    p = env.payload
    if p is None:
        return _NONE + head
    kind = None
    if isinstance(p, np.ndarray):
        kind = _ARRAY
    elif isinstance(p, np.generic):
        kind = _NPSCALAR
    elif type(p) in (float, int, bool, complex):
        kind, p = _PYSCALAR, np.asarray(p)  # an int beyond 64 bits: object
    if kind and p.dtype.kind in "biufc":
        if not p.flags.c_contiguous:
            # Not to pickle: numpy pickles a strided array of foreign
            # byte order as native, and the dtype must arrive as sent.
            p = p.copy()
        dtype = p.dtype.str.encode("ascii")
        return b"".join((
            kind, head, bytes((len(dtype), p.ndim)), dtype,
            struct.pack(f"<{p.ndim}q", *p.shape), p.data,
        ))
    return _PICKLE + head + pickle.dumps(
        env.payload, protocol=pickle.HIGHEST_PROTOCOL
    )


def load_envelope(data: bytes) -> Envelope:
    """Decode :func:`dump_envelope` bytes.  A decoded array is writable
    and owns its memory — never a view of ``data``."""
    kind = data[:1]
    fields = _ENV.unpack_from(data, 1)
    off = 1 + _ENV.size
    if kind == _NONE:
        payload = None
    elif kind == _PICKLE:
        payload = pickle.loads(memoryview(data)[off:])
    else:
        dlen, ndim = data[off], data[off + 1]
        off += 2
        dtype = np.dtype(bytes(data[off:off + dlen]).decode("ascii"))
        off += dlen
        shape = struct.unpack_from(f"<{ndim}q", data, off)
        payload = np.frombuffer(data, dtype, offset=off + 8 * ndim)
        payload = payload.reshape(shape).copy()
        if kind == _NPSCALAR:
            payload = payload[()]
        elif kind == _PYSCALAR:
            payload = payload.item()
    return Envelope(*fields[:4], payload, *fields[4:])


class SharedBlockTracker:
    """:class:`~repro.mpi.transport.BlockTracker` API over shared slots.

    Three int64 slots per rank in one lock-free ``RawArray`` created by
    the parent: progress made on the rank's own thread, progress made
    on its delivery thread, and a blocked flag.  Every slot has exactly
    one writer (an aligned 8-byte store), so there is no lock for a
    killed process or a daemon thread frozen at exit to leave held; the
    parent watchdog sums the slots.  :meth:`writer` binds a view to the
    slots one thread may write.
    """

    def __init__(self, ctx, nranks: int):
        self._slots = ctx.RawArray("q", 3 * nranks)
        self._progress = 0
        self._flag = 2

    def writer(self, rank: int, delivery: bool = False) -> "SharedBlockTracker":
        """This tracker as written by ``rank``'s rank (or delivery) thread."""
        view = copy.copy(self)
        view._progress = 3 * rank + delivery
        view._flag = 3 * rank + 2
        return view

    def bump(self) -> None:
        self._slots[self._progress] += 1

    @property
    def progress_value(self) -> int:
        slots = self._slots[:]
        return sum(slots) - sum(slots[2::3])

    def enter_blocked(self) -> None:
        self._slots[self._flag] = 1

    def exit_blocked(self) -> None:
        self._slots[self._flag] = 0

    @property
    def blocked(self) -> int:
        return sum(self._slots[2::3])
