"""Nonblocking communication requests (``MPI_Request`` analogue).

Sends are *eager*: the payload is snapshotted and delivered at post
time, so a :class:`SendRequest` is born complete (its virtual cost was
already charged at post).  Receives return a :class:`RecvRequest` whose
:meth:`~RecvRequest.wait` blocks the calling thread until the matching
envelope arrives and then charges the receiver's virtual clock with the
modelled wait interval — this is exactly the ``MPI_Wait`` time that
dominates Fig. 9 of the paper.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from .errors import AbortError
from .status import Status
from .transport import PendingRecv

if TYPE_CHECKING:  # pragma: no cover
    from .communicator import Comm


class Request:
    """Abstract base for nonblocking-operation handles."""

    def wait(self, site: Optional[str] = None) -> Any:
        raise NotImplementedError

    def test(self) -> bool:
        """True if the operation could complete without blocking."""
        raise NotImplementedError

    @property
    def completed(self) -> bool:
        raise NotImplementedError


class SendRequest(Request):
    """Handle for an eager nonblocking send (already complete)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def wait(self, site: Optional[str] = None) -> None:
        return None

    def test(self) -> bool:
        return True

    @property
    def completed(self) -> bool:
        return True


class RecvRequest(Request):
    """Handle for a posted nonblocking receive."""

    __slots__ = ("_comm", "_pending", "_status", "_payload", "_done")

    def __init__(self, comm: "Comm", pending: PendingRecv):
        self._comm = comm
        self._pending = pending
        self._status: Optional[Status] = None
        self._payload: Any = None
        self._done = False

    def test(self) -> bool:
        return self._done or self._pending.envelope is not None

    @property
    def completed(self) -> bool:
        return self._done

    @property
    def status(self) -> Optional[Status]:
        """Receive status; ``None`` until :meth:`wait` returns."""
        return self._status

    def wait(self, site: Optional[str] = None) -> Any:
        """Block until the message arrives; return the payload.

        Charges the receiver's virtual clock: the clock jumps to the
        modelled arrival time (plus receive overhead) if the message is
        "late" in virtual time, and the jump is recorded against
        ``MPI_Wait`` in the profiler.
        """
        if self._done:
            return self._payload
        comm = self._comm
        t0 = comm.clock.now
        env = self._pending.envelope
        if env is None:
            comm._wait_for((self._pending,), "MPI_Wait")
            env = self._pending.envelope
        payload, status = comm._complete_recv(env, t0)
        self._payload = payload
        self._status = status
        self._done = True
        comm._prof.record(
            "MPI_Wait",
            site or comm._default_site("MPI_Wait"),
            comm.clock.now - t0,
            env.nbytes,
        )
        return payload


def _unmatched(requests: Sequence[Request]) -> tuple:
    """``(comm, pendings)`` of the receives not yet completable."""
    recvs = [
        r for r in requests if isinstance(r, RecvRequest) and not r.test()
    ]
    return (recvs[0]._comm if recvs else None), [r._pending for r in recvs]


def waitall(requests: Sequence[Request], site: Optional[str] = None) -> list:
    """Wait for every request; return payloads in request order.

    Like ``MPI_Waitall``, completion order does not matter: each wait
    advances the rank's virtual clock only as far as the latest arrival,
    so the total charged time equals the makespan of the arrivals, not
    their sum.  The calling thread blocks at most once — the sender of
    the last missing envelope wakes it — and the per-request waits then
    charge the clock in request order without blocking.
    """
    comm, pendings = _unmatched(requests)
    if len(pendings) > 1:
        try:
            comm._wait_for(pendings, "MPI_Waitall")
        except AbortError:
            # The waits below charge the completed prefix, as waiting
            # request by request would have, and raise at the first
            # receive that is still missing.
            pass
    return [req.wait(site=site) for req in requests]


def testall(requests: Sequence[Request]) -> bool:
    """True iff every request in the list could complete without blocking.

    Like ``MPI_Testall`` this does not complete the operations (no
    clock charge, no profiler record): pair with :func:`waitall` once
    it returns True, which will then complete everything wait-free.
    """
    return all(req.test() for req in requests)


def waitany(
    requests: Sequence[Request], site: Optional[str] = None
) -> tuple:
    """Wait until any request completes; return (index, payload).

    Like ``MPI_Waitany``: already-completable requests are preferred
    (checked with :meth:`Request.test` in order); otherwise the call
    blocks until the first of the receives is matched — with
    deterministic virtual time, the *returned* completion is the one
    observable earliest in program order among the testable set, which
    is what the mini-app codes rely on.

    Completion wins over abort, as in
    :meth:`~repro.mpi.transport.Mailbox.wait_for`: a request that
    already tests complete is a committed local fact, so it is reported;
    only a call that finds nothing completable observes the job abort.
    This keeps post-crash progress (and hence crashed-attempt virtual
    makespans) a function of what peers actually sent.
    """
    if not requests:
        raise ValueError("waitany requires at least one request")
    comm, pendings = _unmatched(requests)
    if len(pendings) == len(requests):
        comm._wait_for(pendings, "waitany", first=True)
    i = next(i for i, req in enumerate(requests) if req.test())
    return i, requests[i].wait(site=site)
