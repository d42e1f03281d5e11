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

On a pair numbering every form moves slot buffers of the handle's
:class:`~repro.gs.handle.PairPlan` instead of condensed values, and
lands each payload in its slots instead of folding it.

All of them send through ``Comm._inject`` and charge arrivals through
``Comm._arrive``, so every message is charged, faulted, sequenced,
traced and profiled as one ``isend``, one ``irecv`` and its share of a
``waitall``.  Only the ``gs_op`` family, which owns the array it just
condensed, folds in place.
"""

from __future__ import annotations

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


class _Costs(dict):
    """``nbytes -> (send_overhead, transit per neighbour, recv_overhead)``
    of one plan, filled on first lookup (pure functions of the machine
    model): a hit is a subscript, not a call."""

    def __init__(self, comm, neighbors: List[int]):
        super().__init__()
        self._net = comm.machine.network
        self._me = comm.rank
        self._neighbors = neighbors

    def __missing__(self, nbytes: int) -> tuple:
        net, me = self._net, self._me
        cost = self[nbytes] = (
            net.send_overhead(nbytes),
            [net.transit(q, me, nbytes) for q in self._neighbors],
            net.recv_overhead(nbytes),
        )
        return cost


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
        self._boxes = [runtime.mailbox(q) for q in neighbors]
        self._box = runtime.mailbox(comm.rank)
        self._costs = _Costs(comm, neighbors)

    def route(self, op: ReduceOp, pairs: Optional[PairPlan]) -> tuple:
        """``(send indices, landing keys, fold ufunc)`` per neighbour: on
        condensed values, folded in; on a ``pairs`` slot buffer, copied
        into the neighbour's slots (``None``: no fold)."""
        if pairs is None:
            return self.index, self.index, op.ufunc
        return pairs.send, pairs.recv, None

    def exchange(
        self, stack: np.ndarray, op: ReduceOp, tag: int, site: str,
        local_pass: float, pairs: Optional[PairPlan] = None,
    ) -> None:
        """Blocking exchange of a fields-first ``(nf, n_unique)`` stack,
        or of ``(nf, nslots)`` slot buffers of ``pairs``, in place.

        Field by field, in stack order, everything ``nf`` one-field
        exchanges would do — ``MPI_Irecv`` per neighbour, the sends, the
        arrivals and folds, then ``local_pass`` seconds of compute — for
        one post of all ``nf x neighbours`` receives, one ``take`` per
        neighbour and one lookup of the profile rows.
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
        send, keys, fn = self.route(op, pairs)
        sends = zip(*[stack.take(ix, axis=1) for ix in send])
        for f, (field, payloads) in enumerate(zip(stack, sends)):
            prof.add(irecv, 0.0, 0, nn)
            self._start(payloads, tag, isend)
            self._finish(pendings[f * nn:(f + 1) * nn], field, keys, fn, wait)
            comm.compute(seconds=local_pass)

    def post(
        self, values: np.ndarray, tag: int, site: str,
        pairs: Optional[PairPlan] = None,
    ) -> List[PendingRecv]:
        """Post a receive from, then send ``values.take(index)`` to, every
        neighbour; return the posted receives.

        ``values`` is ``(..., n_unique)`` (or a slot buffer of ``pairs``).
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
        self._start([values.take(ix, axis=-1) for ix in send], tag, isend)
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
        return self._finish(pendings, into, keys, fn, wait)

    def _start(self, payloads, tag: int, isend) -> None:
        """Send ``payloads[i]`` to neighbour ``i`` through
        ``Comm._inject``, booking each as one ``MPI_Isend``."""
        comm = self.comm
        clock, prof, costs, cid = comm.clock, comm._prof, self._costs, comm.cid
        for payload, q, box in zip(payloads, self._neighbors, self._boxes):
            nbytes = payload.nbytes
            t0 = clock.now
            comm._inject(payload, nbytes, costs[nbytes][0], q, box, cid, tag)
            prof.add(isend, clock.now - t0, nbytes)

    def _finish(
        self, pendings: List[PendingRecv], into: np.ndarray, keys, fn,
        wait,
    ) -> float:
        """Per neighbour, in order: charge the arrival through
        ``Comm._arrive``, book one ``MPI_Wait`` and fold the payload into
        ``into[..., key]`` in place (``fn`` ``None``: copy it there);
        return the latest virtual arrival time.  Blocks at most once, at
        the first envelope still missing, until every later one has
        landed too."""
        comm = self.comm
        clock, prof, costs = comm.clock, comm._prof, self._costs
        lead = () if into.ndim == 1 else (Ellipsis,)
        latest = 0.0
        for i, (pending, ix) in enumerate(zip(pendings, keys)):
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
            _, transit, o_recv = costs[env.nbytes]
            arrival = comm._arrive(env, t0, transit[i], o_recv)
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
    or slot buffers of ``pairs`` — which the caller must own."""
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
