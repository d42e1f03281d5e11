"""Crystal-router gather-scatter: staged hypercube all-to-all.

The crystal router (originally developed for all-to-all communication
in hypercubes; gslib's ``crystal_router``) moves arbitrary
(destination, id, payload row) records through ``log2 P`` pairwise
stages: at each stage every rank swaps, with its partner across one
address bit, all records whose destination lies in the partner's half
of the machine.  Message *count* per rank is logarithmic regardless of
how many final destinations there are — the win over pairwise exchange
when neighbours are many and messages small.

Non-power-of-two rank counts are handled by folding the top
``P - 2^k`` ranks onto their lower images before routing and unfolding
afterwards (the same trick MPICH uses for allreduce), which preserves
the "completes in ~log2 P stages" guarantee the paper quotes.
:func:`crystal_stages` states that schedule once, as a table that each
rank's route walks and that ``repro.vscale`` prices.

This module owns the wire format.  A stage message is one contiguous
byte array ``[groups | (dest, count) x groups | ids | rows]`` — int64
header words and ids, then the rows in their own dtype — so it is
charged its size, ``8*(1 + 2*groups) + n*(8 + row_bytes)``, on every
backend and crosses the shm ring and the socket frame unpickled.
:func:`route` is any sparse all-to-all; a gather-scatter *handle* routes
the same ids the same way every time, so :func:`exchange_crystal` keeps
the :class:`CrystalPlan` its first route worked out and later ships the
rows alone, charged what the full message would be.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Optional, Tuple

import numpy as np

from ..mpi.communicator import rank_program
from ..mpi.datatypes import ReduceOp
from ..mpi.errors import CommunicatorError
from .handle import GSHandle

#: Tag for crystal-router stage traffic.
TAG_CRYSTAL = 7101

#: Call-site label recorded in the mpiP-style profile.
SITE = "gs_op:crystal"

_NONE = np.empty(0, dtype=np.intp)
_BLANK = (_NONE, 0, 0, 0)  # a step's (take, groups, lo, hi) until routed


@lru_cache(maxsize=None)
def crystal_stages(size: int) -> tuple:
    """The crystal router on ``size`` ranks, one ``(verb, tag, mask,
    senders, receivers)`` row per stage: ``senders[i]`` sends
    ``receivers[i]`` the records it holds whose destination differs
    from it in a bit of ``mask``.

    The top ``size - pof2`` ranks fold, parking everything on their low
    images; the low ``pof2`` swap across one address bit per stage, a
    destination ``>= pof2`` routing via its folded image (the same low
    bits); the unfold hands each folded rank what is addressed to it.
    :func:`_run` walks one rank's projection and ``repro.vscale`` moves
    every rank's records through the table at once."""
    pof2 = 1 << (size.bit_length() - 1)
    low, high = np.arange(size - pof2), np.arange(pof2, size)
    hub = np.arange(pof2)
    rows = [("MPI_Send", TAG_CRYSTAL, -1, high, low)] if len(high) else []
    bit = pof2 >> 1
    while bit:
        rows.append(("MPI_Isend", TAG_CRYSTAL + 1, bit, hub, hub ^ bit))
        bit >>= 1
    if len(high):
        rows.append(("MPI_Send", TAG_CRYSTAL + 2, pof2, low, high))
    return tuple(rows)


def _record_bytes(rows: np.ndarray) -> int:
    """Wire bytes of one record: its id and its row."""
    return 8 + rows.dtype.itemsize * prod(rows.shape[1:])


def message_nbytes(groups, record_bytes):
    """Size of a stage message whose records — ``record_bytes`` of ids
    and rows in all — are for ``groups`` destinations: the count word
    and one ``(dest, count)`` pair per group come on top.  Scalars, or
    arrays for many messages at once (``repro.vscale``)."""
    return 8 * (1 + 2 * groups) + record_bytes


def _pack(dest: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> tuple:
    """``(groups, message)`` for records sorted by ``dest``."""
    counts = np.bincount(dest)
    to = counts.nonzero()[0]
    head = np.empty(1 + 2 * len(to), dtype=np.int64)
    head[0] = len(to)
    head[1::2] = to
    head[2::2] = counts[to]
    body = np.ascontiguousarray(rows).reshape(-1)
    return len(to), np.concatenate(
        [part.view(np.uint8) for part in (head, ids, body)]
    )


def _unpack(msg, like: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(dest, ids, rows)`` of a stage message whose rows have the shape
    and dtype of ``like``'s."""
    if getattr(msg, "dtype", None) == np.uint8 and msg.ndim == 1:
        at = 8 + 16 * int(msg[:8].view(np.int64)[0])
        groups = msg[8:at].view(np.int64).reshape(-1, 2)
        n = int(groups[:, 1].sum())
        if msg.size == at + n * _record_bytes(like):
            return (
                np.repeat(groups[:, 0], groups[:, 1]),
                msg[at:at + 8 * n].view(np.int64),
                msg[at + 8 * n:].view(like.dtype).reshape(n, *like.shape[1:]),
            )
    raise CommunicatorError(
        f"crystal router: expected a stage message of {like.shape[1:]} "
        f"{like.dtype} rows, got {getattr(msg, 'dtype', type(msg))} "
        f"of shape {np.shape(msg)}"
    )


class CrystalPlan:
    """What one rank's route of one set of records came to: per step its
    ``(to, frm, verb, tag, mask)`` and the ``(take, groups, lo, hi)``
    the route filled in, as flat arrays over a *store* — the rank's own
    records first, every arrival in the next free range.  Per step,
    ``take`` is the store slots that leave, ``groups`` how many
    destinations they are for, ``lo:hi`` the store range the receive
    fills; ``final`` is the slots addressed to this rank, in arrival
    order.  None of it depends on the rows, so the same
    records route again (:func:`_run` without ``dest``) for any row
    dtype and width.  A gather-scatter handle's plan also keeps
    ``index``, the condensed entries its records carry, and the
    ``rounds`` that fold ``final``."""

    def __init__(self, comm, index: np.ndarray = _NONE):
        self.comm, self.index = comm, index
        self.steps: list = []
        self.prices: dict = {}  # record bytes -> what each step is charged
        self.final, self.size = _NONE, 0
        self.rounds: list = []

    def close(self, ix: np.ndarray) -> None:
        """``ix``: the uid-indices that the ``final`` records fold into.
        One with several remote owners recurs, so the fold is split into
        rounds by occurrence number (as ``GSHandle.rounds`` is): round
        after round of distinct targets is the sequential ``ufunc.at``,
        bit for bit."""
        order = np.argsort(ix, kind="stable")
        target = ix[order]
        nth = np.arange(len(target)) - np.searchsorted(target, target)
        self.rounds = [
            (target[nth == k], self.final[order[nth == k]])
            for k in range(int(nth.max(initial=-1)) + 1)
        ]


def _run(
    plan: CrystalPlan, site: str, rows: np.ndarray,
    dest: Optional[np.ndarray] = None, ids: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Walk ``plan.comm``'s rank's projection of :func:`crystal_stages`
    over its records' ``rows`` — per step, send ``to`` the held records
    whose destination differs from this rank in a bit of ``mask``, then
    receive from ``frm`` — and return the ``(ids, rows)`` store.  With
    ``dest`` and ``ids`` the records are routed and ``plan`` filled in;
    without, ``plan`` says which rows leave and land where, and ``ids``
    is ``None``.  Either way a message is charged the size of the full
    stage message, and a stage the memory pass over the records it
    moved (gslib's crystal router packs and unpacks per stage)."""
    comm = plan.comm
    rank, cid, machine, clock = comm.rank, comm.cid, comm.machine, comm.clock
    record, mailbox = comm._prof.record, comm._runtime.mailbox
    record_bytes, row_shape = _record_bytes(rows), rows.shape[1:]
    recording = dest is not None
    if recording:
        dest = np.asarray(dest, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        held = (dest != rank).nonzero()[0]   # in transit, oldest first
        mine = (dest == rank).nonzero()[0]   # never travels
        steps = (
            program + _BLANK
            for program in rank_program(crystal_stages, comm.size, rank)
        )
    else:
        store = np.empty((plan.size, *row_shape), dtype=rows.dtype)
        store[:len(rows)] = rows
        rows, steps = store, plan.steps
    # Per step ``(nbytes, send overhead, stage seconds)``: pure functions
    # of the plan, the record size and the machine model, worked out the
    # first time records of this size take the step.
    prices = plan.prices.get(record_bytes)
    if prices is None:
        prices = plan.prices[record_bytes] = []
    for stage, step in enumerate(steps):
        to, frm, verb, tag, mask, take, groups, lo, hi = step
        priced = stage < len(prices)
        nbytes, overhead, seconds = prices[stage] if priced else (0, 0.0, 0.0)
        if to is not None:
            if recording:
                out = (dest[held] ^ rank) & mask != 0
                take, held = held[out], held[~out]
                take = take[dest[take].argsort(kind="stable")]
                groups, payload = _pack(
                    dest[take], ids[take], rows.take(take, axis=0)
                )
            else:
                payload = rows.take(take, axis=0)  # the send-time snapshot
            if not priced:
                nbytes = message_nbytes(groups, len(take) * record_bytes)
                overhead = machine.network.send_overhead(nbytes)
            t0 = clock.now
            comm._inject(payload, nbytes, overhead, to, mailbox(to), cid, tag)
            record(verb, site, clock.now - t0, nbytes)
        if frm is not None:
            got = comm.recv(source=frm, tag=tag, site=site)
            if recording:
                new = _unpack(got, rows)
                lo, hi = len(dest), len(dest) + len(new[0])
                held = np.concatenate([held, np.arange(lo, hi)])
                dest, ids, rows = (
                    np.concatenate(old_new)
                    for old_new in zip((dest, ids, rows), new)
                )
            elif getattr(got, "shape", None) != (hi - lo, *row_shape):
                raise CommunicatorError(
                    f"crystal replay on rank {rank}, stage {stage}: "
                    f"expected {hi - lo} rows from rank {frm}, "
                    f"got shape {np.shape(got)}"
                )
            else:
                rows[lo:hi] = got
        if not priced:
            if to is not None and frm is not None:
                moved = (len(take) + hi - lo) * record_bytes
                seconds = machine.compute_seconds(mem_bytes=2.0 * moved)
            prices.append((nbytes, overhead, seconds))
        if to is not None and frm is not None:
            comm.compute(seconds=seconds)
        if recording:
            plan.steps.append((*step[:5], take, groups, lo, hi))
    if recording:
        if (dest[held] != rank).any():
            raise AssertionError(
                f"crystal router left records for "
                f"{sorted(set(dest[held].tolist()) - {rank})} on rank {rank}"
            )
        plan.final, plan.size = np.concatenate([held, mine]), len(dest)
    return ids, rows


def route(
    dest: np.ndarray, ids: np.ndarray, rows: np.ndarray, comm,
    site: str = SITE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deliver every record to its destination rank.

    Record ``i`` is ``ids[i]`` and ``rows[i]`` bound for rank ``dest[i]``;
    ``rows`` is ``(n, width)`` — any ``(n, *row_shape)`` — with one row
    shape and dtype on every rank.  Returns the ``(ids, rows)`` addressed
    to this rank, in arrival order: per sender as sent, what a rank held
    before what it received at every stage, its own records last.  The
    transport of the gather-scatter exchange below and of any sparse
    all-to-all (element and particle migration).  Collective.
    """
    plan = CrystalPlan(comm)
    ids, rows = _run(plan, site, np.asarray(rows), dest, ids)
    return ids[plan.final], rows.take(plan.final, axis=0)


def exchange_crystal(
    handle: GSHandle, condensed: np.ndarray, op: ReduceOp, site: str = SITE
) -> np.ndarray:
    """Combine shared entries of ``condensed`` — ``(n_unique,)`` or
    fields-first ``(nf, n_unique)``, one row of ``nf`` values per id —
    via the crystal router; returns a new array.  The handle's first
    exchange routes ``(neighbour, uid, values)`` records and keeps the
    plan; every later one, of any dtype and ``nf``, replays it."""
    out = condensed.T.copy()  # ids first, as records are
    plan = handle._derived.get("crystal")
    if plan is not None and plan.comm is handle.comm:
        _, rows = _run(plan, site, out.take(plan.index, axis=0))
    else:
        send = handle.neighbor_send_index
        index = np.concatenate([_NONE, *send.values()])
        plan = CrystalPlan(handle.comm, index)
        dest = np.repeat(
            np.fromiter(send, np.int64), [len(ix) for ix in send.values()]
        )
        ids, rows = _run(
            plan, site, out.take(index, axis=0), dest, handle.uids[index]
        )
        plan.close(np.searchsorted(handle.uids, ids[plan.final]))
        handle._derived["crystal"] = plan
    for ix, slots in plan.rounds:
        out[ix] = op.ufunc(out[ix], rows.take(slots, axis=0))
    return np.ascontiguousarray(out.T)
