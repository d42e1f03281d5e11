"""Crystal-router gather-scatter: staged hypercube all-to-all.

The crystal router (originally developed for all-to-all communication
in hypercubes; gslib's ``crystal_router``) moves arbitrary
(destination, payload) records through ``log2 P`` pairwise stages: at
each stage every rank swaps, with its partner across one address bit,
all records whose destination lies in the partner's half of the
machine.  Message *count* per rank is logarithmic regardless of how
many final destinations there are — the win over pairwise exchange
when neighbours are many and messages small.

Non-power-of-two rank counts are handled by folding the top
``P - 2^k`` ranks onto their lower images before routing and unfolding
afterwards (the same trick MPICH uses for allreduce), which preserves
the "completes in ~log2 P stages" guarantee the paper quotes.

:func:`route` ships ``{dest: (gids, values)}`` dicts for any sparse
all-to-all.  A gather-scatter *handle* routes the same ids the same way
every time: :func:`exchange_crystal` records that once per value dtype
(:class:`CrystalPlan`) and replays it as flat arrays.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..mpi.datatypes import ReduceOp, payload_nbytes
from ..mpi.errors import CommunicatorError
from .handle import GSHandle

#: Tag for crystal-router stage traffic.
TAG_CRYSTAL = 7101

#: Call-site label recorded in the mpiP-style profile.
SITE = "gs_op:crystal"

#: A routing buffer: destination rank -> (gids, values) record arrays.
Records = Dict[int, Tuple[np.ndarray, np.ndarray]]


def _merge(into: Records, frm: Records) -> None:
    """Concatenate record bundles per destination."""
    for dest, (g, v) in frm.items():
        if dest in into:
            g0, v0 = into[dest]
            into[dest] = (np.concatenate([g0, g]), np.concatenate([v0, v]))
        else:
            into[dest] = (np.asarray(g), np.asarray(v))


def _records_nbytes(records: Records) -> float:
    """Payload bytes in a routing buffer (gids + values)."""
    return float(
        sum(g.nbytes + v.nbytes for g, v in records.values())
    )


def route(records: Records, comm, site: str = SITE, recorder=None) -> Records:
    """Deliver every record bundle to its destination rank.

    Generic crystal-router transport: returns the records whose
    destination is this rank (merged across all senders).  Used by the
    gather-scatter exchange below and reusable for any sparse
    all-to-all (e.g. transfer of particles between ranks).  A
    ``recorder`` (:class:`CrystalPlan`) is told of every bundle sent and
    received and of every stage charge, in program order.
    """
    size, rank = comm.size, comm.rank

    def send(verb: str, bundle: Records, partner: int, tag: int) -> None:
        post = comm.send if verb == "MPI_Send" else comm.isend
        post(bundle, dest=partner, tag=tag, site=site)
        if recorder is not None:
            recorder.sent(verb, partner, tag, bundle)

    def recv(partner: int, tag: int) -> Records:
        bundle = comm.recv(source=partner, tag=tag, site=site)
        if recorder is not None:
            recorder.received(partner, tag, bundle)
        return bundle

    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2

    buf: Records = dict(records)
    # Records addressed to ourselves never travel.
    self_records: Records = {}
    if rank in buf:
        self_records[rank] = buf.pop(rank)

    # Fold: high ranks park everything on their low image.
    if rank >= pof2:
        send("MPI_Send", buf, rank - pof2, TAG_CRYSTAL)
        buf = {}
    elif rank < rem:
        _merge(buf, recv(rank + pof2, TAG_CRYSTAL))

    # Hypercube stages among the low pof2 ranks; destinations >= pof2
    # route via their folded image.
    if rank < pof2:
        bit = pof2 >> 1
        while bit:
            partner = rank ^ bit

            def other_side(dest: int, _bit=bit, _rank=rank) -> bool:
                eff = dest if dest < pof2 else dest - pof2
                return (eff & _bit) != (_rank & _bit)

            outgoing: Records = {}
            keep: Records = {}
            for dest, gv in buf.items():
                (outgoing if other_side(dest) else keep)[dest] = gv
            send("MPI_Isend", outgoing, partner, TAG_CRYSTAL + 1)
            incoming = recv(partner, TAG_CRYSTAL + 1)
            # Per-stage pack/unpack of the routed records is a real
            # memory pass in gslib's crystal router; charge it.
            moved = _records_nbytes(outgoing) + _records_nbytes(incoming)
            seconds = comm.compute(mem_bytes=2.0 * moved)
            if recorder is not None:
                recorder.computed(seconds)
            buf = keep
            _merge(buf, incoming)
            bit >>= 1

    # Unfold: hand back records destined for the folded high ranks.
    if rank < rem:
        high = {d: gv for d, gv in buf.items() if d >= pof2}
        for d in high:
            del buf[d]
        send("MPI_Send", high, rank + pof2, TAG_CRYSTAL + 2)
    elif rank >= pof2:
        buf = {}
        _merge(buf, recv(rank - pof2, TAG_CRYSTAL + 2))

    if any(d != rank for d in buf):
        stray = sorted(d for d in buf if d != rank)
        raise AssertionError(
            f"crystal router left records for {stray} on rank {rank}"
        )
    _merge(buf, self_records)
    return buf


_NONE = np.empty(0, dtype=np.intp)


class CrystalPlan:
    """One rank's crystal-router exchange of one handle and value dtype:
    recorded from a generic :func:`route`, replayed as flat arrays.

    The record is a program over a flat value *store*: ``index`` picks
    the entries of ``condensed`` that fill its head, an arrival lands in
    the next free range, a departure is a ``take`` of store slots, and
    ``rounds`` fold the slots addressed to this rank.  Route, lengths
    and charged sizes depend on the handle and the dtype alone, so a
    replay sends values only, and ``Comm._inject`` charges each message
    what its routing dict was charged."""

    def __init__(self, handle: GSHandle):
        self.comm = handle.comm
        send = handle.neighbor_send_index
        self.index = np.concatenate([_NONE, *send.values()])
        #: ``(verb, world rank, mailbox, tag, store slots, nbytes, send
        #: overhead)``, ``("recv", partner, tag, lo, hi)``, ``("compute", s)``.
        self.steps: list = []
        #: While recording: destination -> store slots of the records
        #: ``route`` holds for it right now; ``_n`` slots are taken.
        self._held, self._n = {}, 0
        self._land({q: len(ix) for q, ix in send.items()})

    def _land(self, lengths: Dict[int, int]) -> None:
        """Records arrive, ``lengths[dest]`` of them per destination."""
        for dest, n in lengths.items():
            held = self._held.get(dest, _NONE)
            self._held[dest] = np.concatenate([held, self._n + np.arange(n)])
            self._n += n

    def sent(self, verb: str, partner: int, tag: int, bundle: Records) -> None:
        comm = self.comm
        slots = np.concatenate([_NONE, *(self._held.pop(d) for d in bundle)])
        nbytes, world = payload_nbytes(bundle), comm.group[partner]
        self.steps.append((
            verb, world, comm._runtime.mailbox(world), tag, slots, nbytes,
            comm.machine.network.send_overhead(nbytes),
        ))

    def received(self, partner: int, tag: int, bundle: Records) -> None:
        lo = self._n
        self._land({dest: len(gids) for dest, (gids, _) in bundle.items()})
        self.steps.append(("recv", partner, tag, lo, self._n))

    def computed(self, seconds: float) -> None:
        self.steps.append(("compute", seconds))

    def close(self, ix: np.ndarray) -> None:
        """End the record.  ``ix``: the uid-indices that the records for
        this rank fold into, in arrival order.  One with several remote
        owners recurs, so the fold is split into rounds by occurrence
        number (as ``GSHandle.rounds`` is): round after round of distinct
        targets is the sequential ``ufunc.at``, bit for bit."""
        slots = self._held.pop(self.comm.rank, _NONE)
        order = np.argsort(ix, kind="stable")
        target = ix[order]
        nth = np.arange(len(target)) - np.searchsorted(target, target)
        self.rounds = [
            (target[nth == k], slots[order[nth == k]])
            for k in range(int(nth.max(initial=-1)) + 1)
        ]

    def replay(self, condensed: np.ndarray, op: ReduceOp, site: str):
        comm = self.comm
        clock, record, cid = comm.clock, comm._prof.record, comm.cid
        store = np.empty(self._n, dtype=condensed.dtype)
        store[:len(self.index)] = condensed.take(self.index)
        for stage, step in enumerate(self.steps):
            if step[0] == "recv":
                _, partner, tag, lo, hi = step
                got = comm.recv(source=partner, tag=tag, site=site)
                if np.shape(got) != (hi - lo,):
                    raise CommunicatorError(
                        f"crystal replay on rank {comm.rank}, stage {stage}: "
                        f"expected {hi - lo} values from rank {partner}, "
                        f"got shape {np.shape(got)}"
                    )
                store[lo:hi] = got
            elif step[0] == "compute":
                comm.compute(seconds=step[1])
            else:  # ``take`` is the send-time snapshot
                verb, w, box, tag, slots, nbytes, ovh = step
                t0 = clock.now
                comm._inject(store.take(slots), nbytes, ovh, w, box, cid, tag)
                record(verb, site, clock.now - t0, nbytes)
        out = condensed.copy()
        for ix, slots in self.rounds:
            out[ix] = op.ufunc(out[ix], store.take(slots))
        return out


def exchange_crystal(
    handle: GSHandle, condensed: np.ndarray, op: ReduceOp, site: str = SITE
) -> np.ndarray:
    """Combine shared entries of ``condensed`` via the crystal router: the
    generic :func:`route`, recorded, on a handle's first exchange of each
    value dtype; a replay of that record on every later one."""
    key = ("crystal", condensed.dtype)
    plan = handle._derived.get(key)
    if plan is not None and plan.comm is handle.comm:
        return plan.replay(condensed, op, site)
    plan = CrystalPlan(handle)
    records: Records = {
        q: (handle.uids[ix], condensed[ix])
        for q, ix in handle.neighbor_send_index.items()
    }
    arrived = route(records, handle.comm, site=site, recorder=plan)
    # What arrived is addressed to this rank: one bundle, or none.
    gids, vals = arrived.get(handle.comm.rank, (_NONE, condensed[:0]))
    out = condensed.copy()
    ix = np.searchsorted(handle.uids, gids)
    # ufunc.at, as several sources may contribute to the same id.
    op.ufunc.at(out, ix, vals)
    plan.close(ix)
    handle._derived[key] = plan
    return out
