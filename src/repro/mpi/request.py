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


class SendRequest(Request):
    """Handle for an eager nonblocking send (already complete)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def wait(self, site: Optional[str] = None) -> None:
        return None

    def test(self) -> bool:
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


def waitall(requests: Sequence[Request], site: Optional[str] = None) -> list:
    """Wait for every request; return payloads in request order.

    Like ``MPI_Waitall``, completion order does not matter: each wait
    advances the rank's virtual clock only as far as the latest arrival,
    so the total charged time equals the makespan of the arrivals, not
    their sum.  The calling thread blocks at most once — the sender of
    the last missing envelope wakes it — and the per-request waits then
    charge the clock in request order without blocking.
    """
    recvs = [
        r for r in requests if isinstance(r, RecvRequest) and not r.test()
    ]
    if len(recvs) > 1:
        try:
            recvs[0]._comm._wait_for(
                [r._pending for r in recvs], "MPI_Waitall"
            )
        except AbortError:
            # The waits below charge the completed prefix, as waiting
            # request by request would have, and raise at the first
            # receive that is still missing.
            pass
    return [req.wait(site=site) for req in requests]
