"""SPMD job runtime: per-rank state, semantics, and backend dispatch.

:class:`Runtime` owns the per-rank state (mailboxes, virtual clocks,
profiles) and delegates *execution* to a selectable
:class:`~repro.mpi.backend.Backend`:

* ``threads`` (default) — one Python thread per simulated rank.
* ``procs`` — one forked OS process per rank with shared-memory
  envelope delivery; real kernel work escapes the GIL and runs truly
  in parallel (see :mod:`repro.mpi.backend`).
* ``sockets`` — one OS process per rank over a socket mesh, on this
  machine or several (see :mod:`repro.net`).

In every case the backend's parent, from the wait loop it already runs
for its ranks, detects deadlock (every live rank's mailbox blocked with
no delivery anywhere, :func:`~repro.mpi.backend.strike_rule`) and
aborts the job with a diagnostic snapshot instead of hanging the test
suite, and virtual-time metrics are identical across backends.

Typical use::

    from repro.mpi import Runtime
    from repro.perfmodel import MachineModel

    def main(comm):
        part = comm.allreduce(comm.rank)
        return part

    rt = Runtime(nranks=8, machine=MachineModel.preset("compton"))
    results = rt.run(main)        # list of per-rank return values
    profile = rt.job_profile()    # mpiP-style statistics
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

from .clock import ClockStats, VirtualClock
from .communicator import Comm
from .errors import AbortError, DeadlockError, MPIError, RankCrashError
from .profiler import JobProfile, RankProfile
from .transport import Mailbox, WakingAbort


class Runtime:
    """Executes an SPMD function over ``nranks`` simulated ranks."""

    def __init__(
        self,
        nranks: int,
        machine: Optional[Any] = None,
        trace_messages: bool = False,
        fault_plan: Optional[Any] = None,
        fault_base_step: int = 0,
        backend: Union[str, Any] = "threads",
    ):
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        # Imported here to avoid a hard cycle at module import time.
        from ..perfmodel.machine import MachineModel
        from .backend import resolve_backend

        self.nranks = nranks
        self.machine = machine if machine is not None else MachineModel.default()
        self.backend = resolve_backend(backend)
        #: Active fault injector, or ``None`` for a fault-free job.
        #: ``fault_base_step`` aligns the plan's global step numbers
        #: with a restarted driver's local ones (see recovery loop).
        self.faults = None
        if fault_plan is not None:
            from ..faults import FaultInjector

            fault_plan.check_ranks(nranks)
            self.faults = FaultInjector(fault_plan, base_step=fault_base_step)
        #: Message trace the hop-weighted traffic is priced from, or
        #: ``None`` when tracing is off (see ``repro.mpi.trace``).
        self.trace = None
        if trace_messages:
            from .trace import MessageTrace

            self.trace = MessageTrace(nranks)

        #: ``(src, dst) ->`` the channel's next message number.  Lock
        #: free: only rank ``src``'s own thread advances its channels
        #: (``Comm._inject``).
        self.seq: dict = {}
        self._mailboxes = [Mailbox(r) for r in range(nranks)]
        self._clocks = [VirtualClock() for _ in range(nranks)]
        self._profiles = [RankProfile(r) for r in range(nranks)]
        self._finished = [False] * nranks
        self.abort_event = WakingAbort(self._mailboxes, self._finished)
        self._ran = False

    # -- wiring --------------------------------------------------------

    def mailbox(self, rank: int) -> Mailbox:
        return self._mailboxes[rank]

    def world_comm(self, rank: int) -> Comm:
        """Build the COMM_WORLD handle for ``rank``."""
        return Comm(self, rank, self._clocks[rank], self._profiles[rank])

    # -- execution -----------------------------------------------------

    def run(
        self,
        main: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
    ) -> List[Any]:
        """Run ``main(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank return values in rank order.  If any rank
        raises, the job is aborted and the first error is re-raised on
        the calling thread (other ranks receive :class:`AbortError`).
        A :class:`Runtime` is single-shot: build a new one per job.
        """
        if self._ran:
            raise MPIError(
                "Runtime is single-shot; create a new instance per job"
            )
        self._ran = True
        outcome = self.backend.execute(
            self, main, tuple(args), dict(kwargs or {})
        )
        if self.deadlock_report is not None:
            raise DeadlockError(self.deadlock_report)
        primary = self._select_error(outcome.errors)
        if primary is not None:
            rank = outcome.errors.index(primary)
            tb = outcome.tracebacks[rank]
            if tb:
                raise MPIError(
                    f"rank {rank} failed:\n{tb}"
                ) from primary
            raise primary
        return outcome.results

    def _select_error(
        self, errors: Sequence[Optional[BaseException]]
    ) -> Optional[BaseException]:
        """Pick the most informative error to re-raise.

        Priority: a real (unexpected) error beats an injected
        :class:`RankCrashError`, which beats the secondary
        :class:`AbortError` casualties it caused.
        """
        crash = None
        abort = None
        for e in errors:
            if e is None:
                continue
            if isinstance(e, AbortError):
                abort = abort or e
            elif isinstance(e, RankCrashError):
                crash = crash or e
            else:
                return e
        return crash or abort

    @property
    def deadlock_report(self) -> Optional[str]:
        """Diagnostic text if the deadlock rule fired, else ``None``."""
        return getattr(self, "_deadlock_report", None)

    # -- post-run reporting --------------------------------------------

    def clock_stats(self) -> List[ClockStats]:
        """Per-rank virtual clock snapshots."""
        return [
            ClockStats(
                rank=r,
                total=c.now,
                compute=c.compute_time,
                comm=c.comm_time,
                hidden_comm=c.hidden_comm_time,
                extra=(
                    {"retry_time": c.retry_time} if c.retry_time else {}
                ),
            )
            for r, c in enumerate(self._clocks)
        ]

    def job_profile(self) -> JobProfile:
        """Merged mpiP-style profile for the completed job."""
        prof = JobProfile(nranks=self.nranks)
        for r in range(self.nranks):
            clock = self._clocks[r]
            prof.rank_totals[r] = (clock.now, self._profiles[r].mpi_time)
            prof.rank_profiles.append(self._profiles[r])
        return prof
