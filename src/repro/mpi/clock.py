"""Per-rank virtual clocks.

The CLUSTER'15 CMT-bone paper reports *performance* results (kernel
runtimes, gather-scatter exchange times, per-rank MPI fractions).  A
pure-Python reproduction cannot match wall-clock numbers from a Fortran
mini-app on Infiniband hardware, so instead every simulated rank carries
a :class:`VirtualClock`: a deterministic, monotonically non-decreasing
count of *modelled* seconds.

Compute kernels advance the clock through the machine model (a roofline
cost in flops/bytes); the communication layer advances it with a
LogGP-style latency/bandwidth model.  Every charge is a pure function of
the machine model, never of the host's wall clock.  All figures in the
paper's evaluation are regenerated in this virtual time base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass
class OverlapInterval:
    """An open split-phase communication window on one rank's clock.

    Created by :meth:`VirtualClock.overlap_interval` when nonblocking
    communication is posted (``gs_op_begin``); closed with
    :meth:`VirtualClock.close_overlap` when the matching wait starts.
    The window records only its opening time — the clock keeps running
    (through compute charges) while the exchange is in flight.
    """

    t_open: float


@dataclass(eq=False, repr=False)
class VirtualClock:
    """A monotonically non-decreasing virtual clock for one rank.

    Attributes
    ----------
    now:
        Current virtual time in seconds.
    compute_time:
        Total virtual seconds attributed to computation.
    comm_time:
        Total virtual seconds attributed to communication (including
        blocked wait time).
    hidden_comm_time:
        Virtual seconds of communication that were *hidden* under
        compute inside split-phase overlap windows — time a blocking
        exchange would have waited but the overlapped pipeline did not
        (see :meth:`close_overlap`).  Informational: hidden time never
        advances ``now``.
    retry_time:
        Virtual seconds spent retransmitting dropped messages
        (exponential backoff + repeated injection overhead, see
        :meth:`charge_retry` and :mod:`repro.faults`).  A subset of
        ``comm_time`` — retries *do* advance ``now``; this accumulator
        only attributes them.
    """

    now: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0
    hidden_comm_time: float = 0.0
    retry_time: float = 0.0

    def advance(self, dt: float, *, kind: str = "compute") -> None:
        """Advance the clock by ``dt >= 0`` virtual seconds.

        ``kind`` is either ``"compute"`` or ``"comm"`` and controls which
        accumulator the interval is attributed to.
        """
        if dt < 0:
            raise ValueError(f"negative clock advance: {dt!r}")
        self.now += dt
        if kind == "compute":
            self.compute_time += dt
        elif kind == "comm":
            self.comm_time += dt
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown advance kind: {kind!r}")

    def synchronize(self, t: float, *, kind: str = "comm") -> float:
        """Move the clock forward to virtual time ``t`` if ``t`` is ahead.

        Returns the (non-negative) wait interval.  Used when a receive
        completes: the receiver's clock jumps to the message arrival
        time and the jump is the modelled ``MPI_Wait`` time.
        """
        dt = t - self.now
        if dt > 0:
            self.advance(dt, kind=kind)
            return dt
        return 0.0

    def charge_retry(self, dt: float) -> None:
        """Charge ``dt`` seconds of retransmission time (comm + retry).

        Used by the transport when a fault plan drops a message: the
        sender pays the backoff and re-injection cost on its own clock
        (so retried messages hit the wire later), and the interval is
        additionally attributed to :attr:`retry_time` for reporting.
        """
        self.advance(dt, kind="comm")
        self.retry_time += dt

    # -- split-phase overlap accounting -------------------------------------

    def overlap_interval(self) -> OverlapInterval:
        """Open an overlap window at the current time (comm just posted)."""
        return OverlapInterval(t_open=self.now)

    def close_overlap(
        self,
        interval: OverlapInterval,
        completion: float,
        wait_start: "float | None" = None,
    ) -> float:
        """Close an overlap window; credit and return the hidden time.

        ``completion`` is the modelled completion time of the in-flight
        communication (latest message arrival); ``wait_start`` is the
        clock reading when the finishing wait began (defaults to
        ``now``, for callers that close before waiting).  A *blocking*
        exchange opened at ``interval.t_open`` would have waited
        ``max(completion - t_open, 0)``; the overlapped pipeline is
        exposed only to ``max(completion - wait_start, 0)``.  The
        difference is communication hidden under the compute that ran
        inside the window.  Only the exposed part is ever charged to
        ``now`` (by the waits themselves); the hidden part is
        accumulated in :attr:`hidden_comm_time` for reporting.
        """
        if wait_start is None:
            wait_start = self.now
        blocking = max(completion - interval.t_open, 0.0)
        exposed = max(completion - wait_start, 0.0)
        hidden = blocking - exposed
        if hidden < 0:  # pragma: no cover - t_open <= wait_start always
            raise ValueError(f"overlap window closed before it opened: {hidden}")
        self.hidden_comm_time += hidden
        return hidden


class ClockStats(NamedTuple):
    """Immutable snapshot of one rank's clock, used in reports."""

    rank: int
    total: float
    compute: float
    comm: float
    #: Communication hidden under compute in overlap windows (never
    #: part of ``total``; see :meth:`VirtualClock.close_overlap`).
    hidden_comm: float
    extra: dict
