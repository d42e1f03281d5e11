"""Exception hierarchy for the simulated MPI runtime.

The runtime executes one Python thread per simulated rank.  Errors can
originate inside a single rank (bad arguments, truncation) or from the
collective state of the job (deadlock, a peer rank crashing).  All of
them derive from :class:`MPIError` so callers can catch the whole
family with one clause.
"""

from __future__ import annotations


class MPIError(Exception):
    """Base class for all errors raised by the simulated MPI runtime."""


class DeadlockError(MPIError):
    """Every rank is blocked and no message can make progress.

    Raised by :meth:`~repro.mpi.runtime.Runtime.run` once the deadlock
    rule (:func:`~repro.mpi.backend.strike_rule`) fires.  The message
    includes a snapshot of what each rank was blocked on, which makes
    classic mismatched send/recv bugs easy to diagnose.
    """


class AbortError(MPIError):
    """The job was aborted because another rank raised an exception.

    Ranks that were blocked in communication when a peer died receive
    this error instead of hanging forever.  The original traceback is
    re-raised from :meth:`repro.mpi.runtime.Runtime.run` on the caller's
    thread.
    """


class RankCrashError(MPIError):
    """A rank was killed by an injected fault (see :mod:`repro.faults`).

    Raised *on the crashing rank's own thread* when a scheduled
    :class:`~repro.faults.CrashEvent` fires.  Deliberately **not** a
    subclass of :class:`AbortError`: the runtime must treat the crash as
    a primary failure (set the abort event so blocked peers wake with
    :class:`AbortError`) rather than as a secondary casualty — making it
    an ``AbortError`` would leave every surviving rank blocked until the
    deadlock watchdog gave up.  The crash-recovery loop in
    :func:`repro.solver.driver.run_with_recovery` catches this error,
    restores the last complete checkpoint, and replays.
    """

    def __init__(self, message: str, rank: int = -1, step: "int | None" = None,
                 vtime: float = 0.0):
        super().__init__(message)
        #: World rank that crashed.
        self.rank = rank
        #: Global step the rank was on when it crashed (None for
        #: virtual-time-triggered crashes outside the step loop).
        self.step = step
        #: Crashing rank's virtual clock at the moment of the crash.
        self.vtime = vtime


class CommunicatorError(MPIError):
    """Invalid communicator usage (bad rank, mismatched collective...)."""


class RankError(CommunicatorError):
    """A rank index is out of range for the communicator."""
