"""The simulated communicator: point-to-point + collective operations.

:class:`Comm` keeps only the slice of MPI that CMT-bone calls:
``send/recv/isend/irecv`` (with :func:`~repro.mpi.request.waitall`) for
the pairwise and crystal-router exchanges, ``allreduce`` for vector
reductions and the dense allreduce method, ``alltoall`` for
``gs_setup``'s discovery, and ``barrier``/``allgather``.  Every
``Comm`` is the job's world communicator: ``rank`` is the world rank.
Collectives are implemented *on top of* the point-to-point layer with
the textbook algorithms (dissemination barrier, recursive-doubling
allreduce, ring allgather, rotation alltoall), so their virtual-time
cost emerges from the same latency/bandwidth model as everything else
instead of being a hand-tuned constant.

Every public operation accepts an optional ``site=`` label.  The
profiler aggregates ``(operation, site)`` pairs, which is what the
mpiP-style reports in Figs. 8-10 of the paper group by.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from .clock import VirtualClock
from .datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    ReduceOp,
    SUM,
    copy_payload,
    payload_nbytes,
    snapshot_payload,
)
from .errors import CommunicatorError, RankError
from .profiler import RankProfile
from .request import RecvRequest, Request, SendRequest
from .status import Status
from .transport import ChannelSeq, Envelope, PendingRecv

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime


class Comm:
    """The world communicator, bound to one simulated rank.

    Unlike real MPI (where a communicator handle is shared and the rank
    is implicit in the process), each rank thread holds its *own*
    ``Comm`` instance.
    """

    def __init__(
        self,
        runtime: "Runtime",
        rank: int,
        clock: VirtualClock,
        profile: RankProfile,
    ):
        self._runtime = runtime
        self.cid = _WORLD_CID
        self.rank = rank
        self.size = runtime.nranks
        self.clock = clock
        self._prof = profile

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Comm rank={self.rank}/{self.size}>"

    def _default_site(self, op: str) -> str:
        return op

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise RankError(
                f"{what}={r} out of range for communicator of size {self.size}"
            )

    @property
    def machine(self):
        """The machine/network model the job runs on."""
        return self._runtime.machine

    @property
    def faults(self):
        """Active :class:`~repro.faults.FaultInjector`, or ``None``."""
        return self._runtime.faults

    @property
    def profile(self) -> RankProfile:
        """This rank's mpiP-style profile (fault hooks record here)."""
        return self._prof

    def time(self) -> float:
        """Current virtual time on this rank (``MPI_Wtime`` analogue)."""
        return self.clock.now

    # ------------------------------------------------------------------
    # compute-side clock advancement
    # ------------------------------------------------------------------

    def compute(
        self,
        *,
        flops: float = 0.0,
        mem_bytes: float = 0.0,
        seconds: Optional[float] = None,
        efficiency: float = 1.0,
    ) -> float:
        """Charge a compute interval to this rank's virtual clock.

        Either pass ``seconds`` directly, or pass work counts
        (``flops``, ``mem_bytes``) to be priced by the machine model's
        roofline with an ``efficiency`` factor in (0, 1].  Returns the
        charged interval.
        """
        if seconds is None:
            seconds = self.machine.compute_seconds(
                flops=flops, mem_bytes=mem_bytes, efficiency=efficiency
            )
        self.clock.advance(seconds, kind="compute")
        return seconds

    def shadow(self):
        """Communication that leaves no trace (modelling primitive).

        Inside the context, operations move real data through the real
        mailboxes with real blocking semantics, and every delivery still
        counts as progress for the deadlock rule.  What they suspend:
        time goes to a scratch clock and rows to a scratch profile, both
        discarded on exit; no message is traced or takes a channel
        sequence number; no fault hook runs (drops, degraded links,
        time-triggered crashes).  So the job's clocks, profile, trace
        and fault decisions are as if the region never ran.  Used when a
        component's *cost* is modelled separately from its *data path*
        (the gather-scatter allreduce method, ``repro.gs.allreduce_method``;
        the vscale sample fence).  Collective discipline still applies:
        every rank of the communicator must enter and leave the shadow
        region together.
        """
        return _ShadowRegion(self)

    # ------------------------------------------------------------------
    # point-to-point: raw layer (no profiling; used by collectives too)
    # ------------------------------------------------------------------

    def _send_raw(
        self, payload: Any, dest: int, tag: int, internal: bool = False
    ) -> int:
        """Eager send; charges sender overhead; returns wire bytes.

        ``internal=True`` routes the message through a shadow context id
        so collective-internal traffic can never match user receives
        (real MPI keeps a separate context for collectives too).
        """
        self._check_rank(dest, "dest")
        snapshot, nbytes = snapshot_payload(payload)
        self._inject(
            snapshot,
            nbytes,
            self.machine.network.send_overhead(nbytes),
            dest,
            self._runtime.mailbox(dest),
            self.cid + (_INTERNAL_CID if internal else 0),
            tag,
        )
        return nbytes

    def _inject(
        self, payload: Any, nbytes: int, ovh: float, dest: int,
        box: Any, cid: int, tag: int,
    ) -> None:
        """Charge one send and hand its envelope to ``box``: the one
        place a message is charged, faulted, sequenced and traced, for
        :meth:`_send_raw` and the gather-scatter ``PairwisePlan`` alike.
        ``payload`` must be a snapshot the sender will not touch again."""
        runtime = self._runtime
        faults = runtime.faults
        if faults is not None:
            faults.check_time_crash(self)
        clock = self.clock
        clock.advance(ovh, kind="comm")
        me = self.rank
        seq = runtime.seq.next(me, dest)
        if faults is not None:
            drops = faults.drop_count(me, dest, seq)
            if drops:
                # The reliable layer under the transport: each lost
                # attempt costs its backoff timeout plus a fresh
                # injection overhead, all on the sender's clock — so
                # the surviving copy hits the wire later and every
                # downstream arrival shifts deterministically.
                penalty = drops * ovh + faults.plan.retry.backoff_seconds(drops)
                clock.charge_retry(penalty)
                faults.log_drop(me, dest, seq, drops, penalty)
                self._prof.record(
                    "FAULT_Retry",
                    f"fault:drop[{me}->{dest}]",
                    penalty,
                    nbytes * drops,
                    informational=True,
                )
        env = Envelope(me, dest, cid, tag, payload, nbytes, clock.now, seq)
        trace = runtime.trace
        if trace is not None:
            trace.record(
                src=me, dst=dest, cid=cid, tag=tag, nbytes=nbytes,
                wire_vtime=env.wire_vtime, seq=seq,
            )
        box.deliver(env)

    def _post_recv_raw(
        self, source: int, tag: int, internal: bool = False
    ) -> PendingRecv:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        return self._runtime.mailbox(self.rank).post_recv(
            self.cid + (_INTERNAL_CID if internal else 0), source, tag
        )

    def _wait_for(self, pendings: Sequence[PendingRecv], what: str) -> None:
        """Block (at most once) until ``pendings`` have their envelopes."""
        runtime = self._runtime
        runtime.mailbox(self.rank).wait_for(
            pendings, runtime.abort_event, what
        )

    def _arrive(
        self, env: Envelope, t0: float, transit: float, o_recv: float
    ) -> float:
        """Charge a matched envelope's arrival/wait to the clock, given
        its fault-free network costs; return its virtual arrival time."""
        faults = self._runtime.faults
        if faults is not None:
            transit *= faults.delay_factor(env.src, self.rank)
        arrival = env.wire_vtime + transit
        # ``max(t0, arrival)``, without the call: this runs per message.
        self.clock.synchronize(
            (arrival if arrival > t0 else t0) + o_recv, kind="comm"
        )
        return arrival

    def _complete_recv(self, env: Envelope, t0: float) -> Tuple[Any, Status]:
        """Charge virtual arrival/wait time for a matched envelope."""
        net = self.machine.network
        arrival = self._arrive(
            env, t0,
            net.transit(env.src, self.rank, env.nbytes),
            net.recv_overhead(env.nbytes),
        )
        status = Status(
            source=env.src,
            tag=env.tag,
            nbytes=env.nbytes,
            arrival_vtime=arrival,
            wait_vtime=max(0.0, arrival - t0),
        )
        return env.payload, status

    def _recv_raw(
        self, source: int, tag: int, internal: bool = False
    ) -> Tuple[Any, Status]:
        faults = self._runtime.faults
        if faults is not None:
            faults.check_time_crash(self)
        pending = self._post_recv_raw(source, tag, internal=internal)
        t0 = self.clock.now
        if pending.envelope is None:
            self._wait_for((pending,), f"recv(src={source}, tag={tag})")
        return self._complete_recv(pending.envelope, t0)

    # ------------------------------------------------------------------
    # point-to-point: public, profiled layer
    # ------------------------------------------------------------------

    def send(
        self, payload: Any, dest: int, tag: int = 0, site: Optional[str] = None
    ) -> None:
        """Blocking (eager) standard-mode send."""
        t0 = self.clock.now
        nbytes = self._send_raw(payload, dest, tag)
        self._prof.record(
            "MPI_Send", site or self._default_site("MPI_Send"),
            self.clock.now - t0, nbytes,
        )

    def isend(
        self, payload: Any, dest: int, tag: int = 0, site: Optional[str] = None
    ) -> Request:
        """Nonblocking send.  Eager: the returned request is complete."""
        t0 = self.clock.now
        nbytes = self._send_raw(payload, dest, tag)
        self._prof.record(
            "MPI_Isend", site or self._default_site("MPI_Isend"),
            self.clock.now - t0, nbytes,
        )
        return SendRequest(nbytes)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        site: Optional[str] = None,
        return_status: bool = False,
    ) -> Any:
        """Blocking receive; returns the payload (and optionally status)."""
        t0 = self.clock.now
        payload, status = self._recv_raw(source, tag)
        self._prof.record(
            "MPI_Recv", site or self._default_site("MPI_Recv"),
            self.clock.now - t0, status.nbytes,
        )
        if return_status:
            return payload, status
        return payload

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        site: Optional[str] = None,
    ) -> RecvRequest:
        """Nonblocking receive; completion charged at ``wait`` time."""
        pending = self._post_recv_raw(source, tag)
        self._prof.record(
            "MPI_Irecv", site or self._default_site("MPI_Irecv"), 0.0, 0
        )
        return RecvRequest(self, pending)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self, site: Optional[str] = None) -> None:
        """Dissemination barrier: ceil(log2 P) zero-byte rounds."""
        t0 = self.clock.now
        k = 1
        while k < self.size:
            dest = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            self._send_raw(None, dest, _TAG_BARRIER + k, internal=True)
            self._recv_raw(src, _TAG_BARRIER + k, internal=True)
            k <<= 1
        self._prof.record(
            "MPI_Barrier", site or self._default_site("MPI_Barrier"),
            self.clock.now - t0, 0,
        )

    def allreduce(
        self, payload: Any, op: ReduceOp = SUM, site: Optional[str] = None
    ) -> Any:
        """Recursive-doubling allreduce with non-power-of-two fold."""
        t0 = self.clock.now
        result = self._allreduce_raw(payload, op)
        self._prof.record(
            "MPI_Allreduce", site or self._default_site("MPI_Allreduce"),
            self.clock.now - t0, payload_nbytes(payload),
        )
        return result

    def _allreduce_raw(self, payload: Any, op: ReduceOp) -> Any:
        """Walk this rank's row of :func:`allreduce_stages`."""
        result = copy_payload(payload)
        program = rank_program(allreduce_stages, self.size, self.rank)
        for to, frm, tag, combine in program:
            if to is not None:
                self._send_raw(result, to, tag, internal=True)
            if frm is not None:
                other, _ = self._recv_raw(frm, tag, internal=True)
                result = op(result, other) if combine else other
        return result

    def allgather(self, payload: Any, site: Optional[str] = None) -> List[Any]:
        """Ring allgather; returns a list indexed by rank."""
        t0 = self.clock.now
        size, rank = self.size, self.rank
        blocks: List[Any] = [None] * size
        blocks[rank] = copy_payload(payload)
        right = (rank + 1) % size
        left = (rank - 1) % size
        send_idx = rank
        for _ in range(size - 1):
            self._send_raw(blocks[send_idx], right, _TAG_ALLGATHER, internal=True)
            recv_idx = (send_idx - 1) % size
            blocks[recv_idx], _ = self._recv_raw(left, _TAG_ALLGATHER, internal=True)
            send_idx = recv_idx
        self._prof.record(
            "MPI_Allgather", site or self._default_site("MPI_Allgather"),
            self.clock.now - t0, payload_nbytes(payload),
        )
        return blocks

    def alltoall(
        self, payloads: Sequence[Any], site: Optional[str] = None
    ) -> List[Any]:
        """Rotation (pairwise) all-to-all personalized exchange.

        ``payloads[d]`` goes to rank ``d``; returns the list received,
        indexed by source rank.  This is the pattern the paper's
        ``gs_setup`` discovery phase uses.
        """
        if len(payloads) != self.size:
            raise CommunicatorError(
                f"alltoall needs {self.size} payloads, got {len(payloads)}"
            )
        t0 = self.clock.now
        size, rank = self.size, self.rank
        out: List[Any] = [None] * size
        out[rank] = copy_payload(payloads[rank])
        nbytes = 0
        for i in range(1, size):
            dst = (rank + i) % size
            src = (rank - i) % size
            nbytes += self._send_raw(payloads[dst], dst, _TAG_ALLTOALL + i, internal=True)
            out[src], _ = self._recv_raw(src, _TAG_ALLTOALL + i, internal=True)
        self._prof.record(
            "MPI_Alltoall", site or self._default_site("MPI_Alltoall"),
            self.clock.now - t0, nbytes,
        )
        return out


class _ShadowRuntime:
    """The job's runtime as a shadow region sees it: the same mailboxes,
    machine and abort event, but no message trace, no fault
    injector and a sequence counter of its own."""

    trace = None
    faults = None

    def __init__(self, runtime: "Runtime"):
        self._runtime = runtime
        self.seq = ChannelSeq()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._runtime, name)


class _ShadowRegion:
    """Context manager backing :meth:`Comm.shadow`: swaps the rank's
    clock, profile and runtime for scratch ones, and back on exit."""

    def __init__(self, comm: Comm):
        self._comm = comm
        self._saved: Optional[tuple] = None

    def __enter__(self) -> Comm:
        comm = self._comm
        self._saved = comm.clock, comm._prof, comm._runtime
        scratch = VirtualClock()
        scratch.now = comm.clock.now  # keep message ordering plausible
        comm.clock = scratch
        comm._prof = RankProfile(comm.rank)
        comm._runtime = _ShadowRuntime(comm._runtime)
        return comm

    def __exit__(self, *exc) -> None:
        comm = self._comm
        comm.clock, comm._prof, comm._runtime = self._saved


#: The world communicator's context id.
_WORLD_CID = 1

#: Context-id offset for collective-internal traffic (keeps it from
#: ever matching user point-to-point receives, even with wildcards).
_INTERNAL_CID = 1 << 60

# Tag bases reserved for internal collective traffic.  User tags share
# the space, but collectives always execute in lockstep on all members,
# so a disjoint high range avoids accidental matches with user p2p.
_TAG_BARRIER = 1 << 24
_TAG_ALLREDUCE = (1 << 24) + 192
_TAG_ALLGATHER = (1 << 24) + 256
_TAG_ALLTOALL = (1 << 24) + 448


@lru_cache(maxsize=None)
def rank_program(stages, size: int, rank: int) -> tuple:
    """``rank``'s projection of the stage table ``stages(size)``, whose
    rows end ``(..., senders, receivers)``, ``senders[i]`` sending to
    ``receivers[i]``: ``(to, frm, *rest of the row)`` per stage it takes
    part in, with ``to`` or ``frm`` ``None`` where it only receives or
    only sends."""
    program = []
    for *row, senders, receivers in stages(size):
        to, frm = receivers[senders == rank], senders[receivers == rank]
        if len(to) or len(frm):
            program.append((
                int(to[0]) if len(to) else None,
                int(frm[0]) if len(frm) else None,
                *row,
            ))
    return tuple(program)


@lru_cache(maxsize=None)
def allreduce_stages(size: int) -> tuple:
    """The recursive-doubling allreduce on ``size`` ranks, one ``(tag,
    combine, senders, receivers)`` row per stage: ``senders[i]`` sends
    its partial result to ``receivers[i]``, which combines it with its
    own — or, where ``combine`` is false, takes it as the result.

    MPICH's non-power-of-two fold: the first ``2*rem`` ranks pair up,
    each even rank handing its value to the odd one above, so ``pof2``
    survivors remain; survivor ``i`` swaps with survivor ``i ^ mask``
    for ``mask = 1, 2, ..., pof2/2``; then each odd rank hands the
    result back.  :meth:`Comm._allreduce_raw` walks one rank's row and
    ``repro.vscale`` prices every rank's at once."""
    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2
    even = np.arange(0, 2 * rem, 2)
    ids = np.arange(pof2)
    survivor = np.where(ids < rem, 2 * ids + 1, ids + rem)  # world rank
    rows = [(_TAG_ALLREDUCE, True, even, even + 1)] if rem else []
    mask = 1
    while mask < pof2:
        rows.append((_TAG_ALLREDUCE + 1, True, survivor[ids ^ mask], survivor))
        mask <<= 1
    if rem:
        rows.append((_TAG_ALLREDUCE + 2, False, even + 1, even))
    return tuple(rows)
