"""``repro.mpi`` — a from-scratch simulated MPI for mini-app studies.

This package provides the message-passing substrate the CMT-bone
reproduction runs on.  Each simulated rank is a Python thread (or, with
``backend="sockets"`` or its local alias ``"procs"``, an OS process)
with a private mailbox and a *virtual clock*; communication costs come
from a LogGP-style latency/bandwidth model, so runs are deterministic
and the paper's communication figures (gather-scatter method
comparison, MPI time fractions, top call sites, message sizes) can be
regenerated without cluster hardware.  See ``docs/backends.md`` for
backend selection.

Public surface:

* :class:`Runtime` — launch SPMD jobs.
* :class:`Comm` — the per-rank world communicator, with only the calls
  CMT-bone makes: ``send``/``recv``/``isend``/``irecv`` and
  :func:`waitall`, ``barrier``, ``allreduce``, ``allgather`` and
  ``alltoall``.
* Reduction ops ``SUM``/``PROD``/``MIN``/``MAX`` and the wildcards
  ``ANY_SOURCE``/``ANY_TAG``.
* Profiling types: :class:`JobProfile`, :class:`SiteAggregate`.
"""

from .backend import (
    Backend,
    ThreadsBackend,
    available_backends,
    resolve_backend,
)
from .clock import ClockStats, OverlapInterval, VirtualClock
from .communicator import Comm
from .datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    MAX,
    MIN,
    PROD,
    SUM,
    ReduceOp,
    payload_nbytes,
)
from .errors import (
    AbortError,
    CommunicatorError,
    DeadlockError,
    MPIError,
    RankCrashError,
    RankError,
)
from .profiler import CallRecord, JobProfile, RankProfile, SiteAggregate
from .request import (
    RecvRequest,
    Request,
    SendRequest,
    waitall,
)
from .runtime import Runtime
from .status import Status
from .trace import MessageTrace, TraceEvent

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "AbortError",
    "Backend",
    "CallRecord",
    "ClockStats",
    "Comm",
    "CommunicatorError",
    "DeadlockError",
    "JobProfile",
    "MAX",
    "MIN",
    "MPIError",
    "MessageTrace",
    "OverlapInterval",
    "PROD",
    "RankCrashError",
    "RankError",
    "RankProfile",
    "RecvRequest",
    "ReduceOp",
    "Request",
    "Runtime",
    "SUM",
    "SendRequest",
    "SiteAggregate",
    "Status",
    "ThreadsBackend",
    "TraceEvent",
    "VirtualClock",
    "available_backends",
    "resolve_backend",
    "payload_nbytes",
    "waitall",
]
