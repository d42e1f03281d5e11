"""Shared-memory plumbing for the process-parallel execution backend.

The ``procs`` backend (:mod:`repro.mpi.backend`) runs every simulated
rank as an OS process, so envelope delivery can no longer be a direct
method call on the destination's :class:`~repro.mpi.transport.Mailbox`.
This module provides :class:`ShmRing`, a multi-producer
single-consumer ring buffer in an anonymous shared mapping that the
parent creates before it forks the ranks.  Each rank owns one ring;
every peer encodes envelopes (:func:`dump_envelope`) into it and the
owner's delivery thread drains it into the ordinary in-process mailbox,
so the matching semantics (posted/unexpected queues, non-overtaking per
channel) are byte-for-byte the thread backend's.

Nothing here has a name in ``/dev/shm``: the mapping is freed when the
last process that inherited it unmaps it, so a killed rank leaves
nothing behind and no ``multiprocessing`` resource tracker is started.

Memory-ordering note: the ring's ``head``/``tail`` are aligned 64-bit
counters.  The reader never consumes a record before the writer's
semaphore release (which is a full synchronisation point), and writers
read ``head`` only to bound free space — a stale value is merely
conservative.  The single racy access is the reader's 8-byte ``head``
store observed by writers, which is atomic for aligned 64-bit stores on
every platform CPython's ``mmap`` targets.
"""

from __future__ import annotations

import mmap
import pickle
import struct
import time
from typing import Callable, Optional

import numpy as np

from .errors import AbortError
from .transport import Envelope

#: Default per-rank ring capacity (bytes of pickled envelope payload).
DEFAULT_RING_CAPACITY = 1 << 20

#: A record (header included) longer than this fraction of the ring
#: travels as consecutive fragment records.
_FRAGMENT_FRACTION = 4

#: Writer back-off while the ring is full or its lock is held (wall
#: seconds).
_PUSH_POLL = 0.0005

#: Ring header: two little-endian uint64 (head, tail), 8-byte aligned.
_HDR = 16

#: Record kinds (first byte of every record body): a whole record, the
#: first fragment of a longer one (which carries its total length), and
#: every later fragment.
_KIND_WHOLE = b"W"
_KIND_FIRST = b"F"
_KIND_MORE = b"M"

#: Record header: body length (kind byte included), then the kind byte.
_REC = struct.Struct("<Ic")
#: Total length of a fragmented record, after the kind byte of its first
#: fragment.
_TOTAL = struct.Struct("<Q")


class ShmRing:
    """MPSC ring buffer over an anonymous shared mapping.

    One reader (the owning rank's delivery thread), many writers (every
    peer rank's sending thread).  Writers serialise on ``writer_lock``;
    the reader is lock-free and paced by ``data_sem``, which counts
    records in the ring.  ``head``/``tail`` are monotone byte offsets
    (they never wrap — positions are taken modulo the capacity), so free
    space is simply ``capacity - (tail - head)``.

    A record longer than ``capacity // 4`` is cut into fragments of at
    most that size, pushed back to back under one hold of
    ``writer_lock``, so a record of any size passes through as the
    reader drains it and fragments of two writers never interleave.
    :meth:`pop` joins them and returns whole records only.  A writer
    that aborts or gives up between fragments leaves a cut record; the
    reader drops it when the next record starts.
    """

    def __init__(self, ctx, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity < 4096:
            raise ValueError(f"ring capacity too small: {capacity}")
        self.capacity = capacity
        self._buf = mmap.mmap(-1, _HDR + capacity)
        self.writer_lock = ctx.Lock()
        self.data_sem = ctx.Semaphore(0)
        self._limit = capacity // _FRAGMENT_FRACTION
        #: Reader side: fragments of the record being joined, and how
        #: many of its bytes are still to come.
        self._parts: Optional[list] = None
        self._missing = 0

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

    def _write(self, pos: int, data) -> None:
        off = pos % self.capacity
        first = min(len(data), self.capacity - off)
        self._buf[_HDR + off:_HDR + off + first] = data[:first]
        rest = len(data) - first
        if rest:
            self._buf[_HDR:_HDR + rest] = data[first:]

    def _read(self, pos: int, n: int) -> bytes:
        off = pos % self.capacity
        first = min(n, self.capacity - off)
        out = self._buf[_HDR + off:_HDR + off + first]
        rest = n - first
        if rest:
            out += self._buf[_HDR:_HDR + rest]
        return out

    # -- producer side -------------------------------------------------

    def push(
        self,
        data: bytes,
        abort_event=None,
        give_up: Optional[Callable[[], bool]] = None,
        what: str = "send",
    ) -> bool:
        """Append one record; block (politely) for ``writer_lock`` and
        while the ring is full.

        Raises :class:`AbortError` if ``abort_event`` fires while
        waiting; returns ``False`` (record dropped) when ``give_up()``
        turns true — the backend passes "the destination rank has
        finished", in which case the message can never be received
        anyway.  Returns ``True`` on success.  Both checks run every
        :data:`_PUSH_POLL` of the wait, so a writer that died holding
        the lock wedges no later sender, and between the fragments of a
        long record too; the fragments already pushed are then dropped
        by the reader.
        """

        def stop() -> bool:
            if abort_event is not None and abort_event.is_set():
                raise AbortError(f"job aborted while blocked in {what}")
            return give_up is not None and give_up()

        if _REC.size + len(data) <= self._limit:
            frags = [(_KIND_WHOLE, data)]
        else:
            view = memoryview(data)
            step = self._limit - _REC.size - _TOTAL.size
            frags = [(_KIND_FIRST, _TOTAL.pack(len(data)) + view[:step])]
            frags += [(_KIND_MORE, view[i:i + step])
                      for i in range(step, len(data), step)]
        lock = self.writer_lock
        while not lock.acquire(timeout=_PUSH_POLL):
            if stop():
                return False
        try:
            for kind, body in frags:
                need = _REC.size + len(body)
                while self.capacity - ((tail := self._tail())
                                       - self._head()) < need:
                    if stop():
                        return False
                    time.sleep(_PUSH_POLL)
                self._write(tail, _REC.pack(1 + len(body), kind))
                self._write(tail + _REC.size, body)
                self._set_tail(tail + need)
                self.data_sem.release()
        finally:
            lock.release()
        return True

    # -- consumer side -------------------------------------------------

    def pop(self, timeout: float) -> Optional[bytes]:
        """Take one whole record, or ``None`` if no record or fragment
        arrives within ``timeout`` (``timeout=0``: if none is there
        now).  The fragments of a long record are joined; a record whose
        writer stopped between fragments is dropped, never returned."""
        # A zero timeout still goes through sem_timedwait with the GIL
        # released (79-97 us a call here); the non-blocking form is 0.2 us.
        sem = self.data_sem
        while True:
            got = sem.acquire(timeout=timeout) if timeout else sem.acquire(False)
            if not got:
                return None
            head = self._head()
            (n,) = struct.unpack("<I", self._read(head, 4))
            rec = self._read(head + 4, n)
            self._set_head(head + 4 + n)
            kind = rec[:1]
            if kind == _KIND_WHOLE:
                self._parts = None
                return rec[1:]
            start = 1
            if kind == _KIND_FIRST:
                (self._missing,) = _TOTAL.unpack_from(rec, 1)
                self._parts = []
                start += _TOTAL.size
            chunk = rec[start:]
            self._parts.append(chunk)
            self._missing -= len(chunk)
            if not self._missing:
                out = b"".join(self._parts)
                self._parts = None
                return out

    # -- lifecycle ------------------------------------------------------

    def destroy(self) -> None:
        """Unmap this process's view (parent side, after every child
        exited); the memory goes with the last view."""
        self._buf.close()


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
