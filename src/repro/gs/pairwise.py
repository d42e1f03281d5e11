"""Pairwise-exchange gather-scatter: direct neighbour messages.

The simplest of the three gslib strategies and — per Fig. 7 — the one
CMT-bone's auto-tuner selects on the paper's 256-rank workload: every
rank posts a nonblocking receive from each sharing neighbour, sends its
own condensed boundary values, and folds what arrives.  Message count
equals the number of sharing neighbours (6 face neighbours for the DG
numbering; up to 26 for the C0 numbering, many of them tiny edge and
corner messages).

As in gslib the per-neighbour schedule is compiled once, into a
:class:`PairwisePlan` — MPI's persistent requests in spirit
(``MPI_Send_init``/``MPI_Startall``): neighbours, mailboxes, message
costs and profile rows are resolved once per handle or per call, and a
message starts only what is its own.  Three entry points run on it:

* :meth:`PairwisePlan.exchange` — the stacked blocking form behind
  ``gs_op``: it posts the receives of a whole fields-first stack at
  once and takes each neighbour's rows once, then per field sends,
  waits, folds and charges the local pass, in stack order;
* :func:`exchange_in_place` / :func:`exchange_pairwise` — one message
  per neighbour for whatever array they are given (one field, or the
  packed stack of ``gs_op_many``), folded in place or into a copy;
* :meth:`PairwisePlan.post` / :meth:`PairwisePlan.complete` — the
  split-phase form behind ``gs_op_begin``/``gs_op_finish``: ``post``
  sends and returns the posted receives, so interior compute can
  proceed while messages are in flight; ``complete`` waits and folds.

On a pair numbering every form moves the entries of the handle's
:class:`~repro.gs.handle.PairPlan` instead of condensed values: it
sends the entries a neighbour shares from a field's other-operand
buffer, and lands each payload over them instead of folding it.

All of them send through ``Comm._inject`` and charge arrivals through
``Comm._arrive``, so every message is charged, faulted, sequenced,
traced and profiled as one ``isend``, one ``irecv`` and its share of a
``waitall``.  Only the ``gs_op`` family, which owns the array it just
condensed, folds in place.
"""

from __future__ import annotations

from math import prod
from typing import List, Optional

import numpy as np

from ..mpi.datatypes import ReduceOp
from ..mpi.errors import AbortError
from ..mpi.transport import PendingRecv
from .handle import GSHandle, PairPlan

#: Tag used by pairwise exchanges (user tag space).
TAG_PAIRWISE = 7001

#: Call-site label recorded in the mpiP-style profile.
SITE = "gs_op:pairwise"

#: The profile rows an exchange books, in the order of their first use.
_OPS = ("MPI_Irecv", "MPI_Isend", "MPI_Wait")


class _Links(dict):
    """``bytes per shared id -> [(neighbour, mailbox, nbytes,
    send_overhead, transit, recv_overhead)]``, one row per neighbour, of
    one plan, filled on first lookup (pure functions of the machine
    model): a call resolves every neighbour's message with one
    subscript."""

    def __init__(self, comm, neighbors: List[int], boxes: list,
                 sizes: List[int]):
        super().__init__()
        self._net = comm.machine.network
        self._me = comm.rank
        self._rows = list(zip(neighbors, boxes, sizes))

    def __missing__(self, width: int) -> list:
        net, me = self._net, self._me
        links = self[width] = []
        for q, box, size in self._rows:
            nbytes = width * size
            links.append((
                q, box, nbytes, net.send_overhead(nbytes),
                net.transit(q, me, nbytes), net.recv_overhead(nbytes),
            ))
        return links


def _width(values: np.ndarray) -> int:
    """Bytes one shared id carries in ``values`` ``(..., n)``."""
    return values.itemsize * prod(values.shape[:-1])


class PairwisePlan:
    """The pairwise exchange of one handle, compiled for its communicator.

    Charges, profile rows, fault hooks and trace records are exactly
    those of an ``irecv`` and an ``isend`` per neighbour and a
    ``waitall`` (``Comm._inject``/``_arrive`` do the charging); the plan
    saves what those calls re-derive per message.
    """

    def __init__(self, handle: GSHandle):
        comm = handle.comm
        runtime = comm._runtime
        self.comm = comm
        self._neighbors = neighbors = handle.neighbors
        self.index = [handle.neighbor_send_index[q] for q in neighbors]
        self._box = runtime.mailbox(comm.rank)
        self._links = _Links(
            comm, neighbors, [runtime.mailbox(q) for q in neighbors],
            [len(ix) for ix in self.index],
        )

    def route(self, op: ReduceOp, pairs: Optional[PairPlan]) -> tuple:
        """``(send indices, landing keys, fold ufunc)`` per neighbour: on
        condensed values, folded in; on the other operands of ``pairs``,
        copied over the entries that were sent (``None``: no fold)."""
        if pairs is None:
            return self.index, self.index, op.ufunc
        return pairs.send, pairs.send, None

    def exchange(
        self, stack: np.ndarray, runs: list, tag: int, site: str,
        local_pass: float, pairs: Optional[PairPlan] = None,
    ) -> None:
        """Blocking exchange of a fields-first ``(nf, n_unique)`` stack,
        or of ``(nf, n)`` other-operand buffers of ``pairs``, in place.

        ``runs`` lists ``(fields, op)``: a slice of the stack and the
        :class:`ReduceOp` its fields fold with, in stack order.  Field
        by field, in stack order, everything ``nf`` one-field exchanges
        would do — ``MPI_Irecv`` per neighbour, the sends, the arrivals
        and folds, then ``local_pass`` seconds of compute — for one post
        of all ``nf x neighbours`` receives, one ``take`` per neighbour
        and one lookup of the profile rows and of the message costs.
        """
        comm = self.comm
        nn = len(self._neighbors)
        if not nn:  # no id is shared with another rank
            for _ in stack:
                comm.compute(seconds=local_pass)
            return
        prof = comm._prof
        irecv, isend, wait = prof.rows(site, _OPS)
        pendings = self._box.post_recvs(
            comm.cid, self._neighbors * len(stack), tag
        )
        links = self._links[stack.itemsize]
        send = self.index if pairs is None else pairs.send
        sends = list(zip(*[stack.take(ix, axis=1) for ix in send]))
        for fields, op in runs:
            _, keys, fn = self.route(op, pairs)
            for f in range(len(stack))[fields]:
                prof.add(irecv, 0.0, 0, nn)
                self._start(sends[f], tag, isend, links)
                self._finish(
                    pendings[f * nn:(f + 1) * nn], stack[f], keys, fn, wait,
                    links,
                )
                comm.compute(seconds=local_pass)

    def post(
        self, values: np.ndarray, tag: int, site: str,
        pairs: Optional[PairPlan] = None,
    ) -> List[PendingRecv]:
        """Post a receive from, then send ``values.take(index)`` to, every
        neighbour; return the posted receives.

        ``values`` is ``(..., n_unique)`` (or ``(..., n)`` entries of
        ``pairs``).
        Each neighbour gets this rank's *original* values, so ids shared
        by more than two ranks (edges/corners in the continuous
        numbering) still fold every contribution exactly once.
        """
        comm = self.comm
        prof = comm._prof
        irecv, isend, _ = prof.rows(site, _OPS)
        pendings = self._box.post_recvs(comm.cid, self._neighbors, tag)
        if pendings:
            prof.add(irecv, 0.0, 0, len(pendings))
        send = self.index if pairs is None else pairs.send
        self._start(
            [values.take(ix, axis=-1) for ix in send], tag, isend,
            self._links[_width(values)],
        )
        return pendings

    def complete(
        self, pendings: List[PendingRecv], into: np.ndarray, op: ReduceOp,
        site: str, pairs: Optional[PairPlan] = None,
    ) -> float:
        """Charge the arrivals of ``post``'s receives and fold (or land)
        them into ``into`` in place; return the latest virtual arrival
        time."""
        _, _, wait = self.comm._prof.rows(site, _OPS)
        _, keys, fn = self.route(op, pairs)
        return self._finish(
            pendings, into, keys, fn, wait, self._links[_width(into)]
        )

    def _start(self, payloads, tag: int, isend, links: list) -> None:
        """Send ``payloads[i]`` to neighbour ``i`` through
        ``Comm._inject``, booking each as one ``MPI_Isend``; ``links``
        is the call's row of :class:`_Links`."""
        comm = self.comm
        clock, prof, cid = comm.clock, comm._prof, comm.cid
        for payload, (q, box, nbytes, ovh, _, _) in zip(payloads, links):
            t0 = clock.now
            comm._inject(payload, nbytes, ovh, q, box, cid, tag)
            prof.add(isend, clock.now - t0, nbytes)

    def _finish(
        self, pendings: List[PendingRecv], into: np.ndarray, keys, fn,
        wait, links: list,
    ) -> float:
        """Per neighbour, in order: charge the arrival through
        ``Comm._arrive``, book one ``MPI_Wait`` and fold the payload into
        ``into[..., key]`` in place (``fn`` ``None``: copy it there);
        return the latest virtual arrival time.  Blocks at most once, at
        the first envelope still missing, until every later one has
        landed too."""
        comm = self.comm
        clock, prof = comm.clock, comm._prof
        lead = () if into.ndim == 1 else (Ellipsis,)
        latest = 0.0
        rows = zip(pendings, keys, links)
        for i, (pending, ix, (_, _, _, _, transit, o_recv)) in enumerate(rows):
            if pending.envelope is None:
                try:
                    comm._wait_for(pendings[i:], "MPI_Waitall")
                except AbortError:
                    # Waiting request by request would have consumed
                    # this one if it is here, and raised at the first
                    # that is not — where the next pass lands again.
                    if pending.envelope is None:
                        raise
            env = pending.envelope
            t0 = clock.now
            arrival = comm._arrive(env, t0, transit, o_recv)
            if arrival > latest:
                latest = arrival
            prof.add(wait, clock.now - t0, env.nbytes)
            key, payload = (*lead, ix), env.payload
            into[key] = payload if fn is None else fn(into[key], payload)
        return latest


def plan_for(handle: GSHandle) -> PairwisePlan:
    """The handle's plan, compiled on first use for its current comm."""
    plan = handle._derived.get("pairwise")
    if plan is None or plan.comm is not handle.comm:
        plan = handle._derived["pairwise"] = PairwisePlan(handle)
    return plan


def exchange_in_place(
    handle: GSHandle, values: np.ndarray, op: ReduceOp, site: str = SITE,
    tag: int = TAG_PAIRWISE, pairs: Optional[PairPlan] = None,
) -> np.ndarray:
    """Blocking exchange of one message per neighbour, folding into
    ``values`` — ``(n_unique,)``, or a packed ``(nf, n_unique)`` stack,
    or other-operand buffers of ``pairs`` — which the caller must own."""
    plan = plan_for(handle)
    plan.complete(
        plan.post(values, tag, site, pairs), values, op, site, pairs
    )
    return values


def exchange_pairwise(
    handle: GSHandle, condensed: np.ndarray, op: ReduceOp, site: str = SITE
) -> np.ndarray:
    """Combine shared entries of ``condensed`` across sharing ranks;
    returns a new array."""
    return exchange_in_place(handle, condensed.copy(), op, site)
