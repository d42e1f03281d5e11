"""Runtime side of fault injection: decide, fire, and log events.

A :class:`FaultInjector` is created by the
:class:`~repro.mpi.runtime.Runtime` from a frozen
:class:`~repro.faults.plan.FaultPlan` and consulted from the rank
threads at well-defined points:

* :meth:`check_step_crash` — top of the solver step loop;
* :meth:`check_time_crash` — prologue of every send/recv, once the
  rank's clock has reached its entry in :attr:`deadlines`;
* :meth:`drop_count` — in ``Comm._inject``, before an envelope hits
  the wire (how many retransmissions does this message suffer?), on a
  link whose entry in :attr:`links` has drop events;
* :attr:`links` ``[src, dst].factor`` — in ``Comm._arrive``, scaling
  modelled transit time for degraded links.

All decisions are pure functions of the plan plus deterministic message
identities, so two runs with the same plan make identical decisions
regardless of wall-clock thread interleaving.  What the plan says about
a rank or a link is worked out once, at its first message, so a
message no event matches costs the message path one comparison.  The
injector itself only carries those tables, the *logs* (what fired,
what dropped) and the one-shot state for crash events; logs and crash
state are guarded by a lock because rank threads call in concurrently.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, NamedTuple, Tuple

from ..mpi.errors import RankCrashError
from ..mpi.transport import MAX_RETRIES
from .plan import CrashEvent, DropEvent, FaultPlan, drop_unit


class DropRecord(NamedTuple):
    """One logged message-drop episode (possibly several attempts)."""

    src: int
    dst: int
    seq: int
    attempts: int
    penalty: float


class Link(NamedTuple):
    """What a plan does to one ``src -> dst`` link."""

    #: The drop events matching the link, in plan order.
    drops: Tuple[DropEvent, ...]
    #: Combined transit-time multiplier of its degrade events.
    factor: float


class _Deadlines(dict):
    """``rank -> time``; a rank no time-triggered crash names maps to
    ``inf``."""

    def __missing__(self, rank: int) -> float:
        return math.inf


class _Links(dict):
    """``(src, dst) -> Link`` of one plan, filled on first lookup."""

    def __init__(self, plan: FaultPlan):
        super().__init__()
        self._plan = plan

    def __missing__(self, key: Tuple[int, int]) -> Link:
        src, dst = key
        factor = 1.0
        for ev in self._plan.degrades:
            if ev.matches(src, dst):
                factor *= ev.factor
        link = self[key] = Link(
            tuple(e for e in self._plan.drops if e.matches(src, dst)), factor
        )
        return link


class FaultInjector:
    """Applies a :class:`FaultPlan` to one runtime launch.

    ``base_step`` maps the driver's local step numbers onto the plan's
    *global* step numbers: after recovery restores a checkpoint at step
    ``s``, the restarted runtime gets ``base_step=s`` so crash events
    keep firing at the step the plan names, not at a shifted one.
    """

    def __init__(self, plan: FaultPlan, base_step: int = 0):
        self.plan = plan
        self.base_step = base_step
        self._lock = threading.Lock()
        self._fired: set = set()
        self.crash_log: List[CrashEvent] = []
        self.drop_log: List[DropRecord] = []
        #: Per rank, the earliest virtual time a time-triggered crash of
        #: the plan names for it (``inf``: none).
        self.deadlines: Dict[int, float] = _Deadlines()
        for ev in plan.crashes:
            if ev.time is not None:
                self.deadlines[ev.rank] = min(self.deadlines[ev.rank], ev.time)
        #: ``(src, dst) -> Link``: the plan's drops and degrades per link.
        self.links = _Links(plan)

    # -- crashes --------------------------------------------------------

    def check_step_crash(self, comm, step: int) -> None:
        """Fire any step-triggered crash for this rank at global ``step``.

        Called at the top of the step loop, before the step executes.
        Raises :class:`RankCrashError` on the crashing rank; peers learn
        of it through the runtime's abort event.
        """
        rank = comm.rank
        for ev in self.plan.crashes:
            if ev.step is not None and ev.rank == rank and ev.step == step:
                self._fire(comm, ev, step=step)

    def check_time_crash(self, comm) -> None:
        """Fire any time-triggered crash whose deadline has passed.

        Called from communication entry points — the first send/recv at
        or after the scheduled virtual time kills the rank (a rank that
        never communicates past the deadline survives, as a real
        node-loss would only be *observed* through communication).  The
        message path calls it only once ``comm``'s clock has reached
        ``deadlines[comm.rank]``.
        """
        rank = comm.rank
        now = comm.clock.now
        for ev in self.plan.crashes:
            if ev.time is not None and ev.rank == rank and now >= ev.time:
                self._fire(comm, ev, step=None)

    def _fire(self, comm, event: CrashEvent, step: "int | None") -> None:
        with self._lock:
            if event in self._fired:
                return
            self._fired.add(event)
            self.crash_log.append(event)
        comm.profile.record(
            "FAULT_Crash",
            f"fault:{event.describe()}",
            0.0,
            0,
            informational=True,
        )
        raise RankCrashError(
            f"injected fault killed rank {comm.rank} "
            f"({event.describe()}) at vtime {comm.clock.now:.6g}",
            rank=comm.rank,
            step=step if event.step is None else event.step,
            vtime=comm.clock.now,
        )

    @property
    def fired_crashes(self) -> Tuple[CrashEvent, ...]:
        """Crash events that fired in this launch (for plan pruning)."""
        with self._lock:
            return tuple(self.crash_log)

    # -- message drops --------------------------------------------------

    def drop_count(self, src: int, dst: int, seq: int) -> int:
        """How many times the ``seq``-th message on ``src -> dst`` drops.

        The reliable layer retransmits after each drop, so the sender
        experiences ``n`` consecutive losses followed by one successful
        injection.  ``n`` is capped at the transport's
        ``MAX_RETRIES`` — beyond that the message is deemed delivered
        (the model never livelocks on a lossy link).  Deterministic:
        probabilistic events hash (plan seed, link, per-link sequence
        number, attempt index); ``nth`` events fire on exactly one
        message, once.
        """
        events = self.links[src, dst].drops
        drops = 0
        while drops < MAX_RETRIES:
            attempt_dropped = False
            for ev in events:
                if ev.nth is not None:
                    # One exact loss of the nth message's first attempt.
                    if seq + 1 == ev.nth and drops == 0:
                        attempt_dropped = True
                elif drop_unit(
                    self.plan.seed, src, dst, seq, drops
                ) < ev.p:
                    attempt_dropped = True
            if not attempt_dropped:
                break
            drops += 1
        return drops

    def log_drop(self, src: int, dst: int, seq: int,
                 attempts: int, penalty: float) -> None:
        """Record a drop episode for the run report."""
        with self._lock:
            self.drop_log.append(
                DropRecord(src=src, dst=dst, seq=seq,
                           attempts=attempts, penalty=penalty)
            )

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """Aggregate fault activity for run reports."""
        with self._lock:
            drops = list(self.drop_log)
            crashes = list(self.crash_log)
        return {
            "crashes": [e.describe() for e in crashes],
            "messages_dropped": sum(d.attempts for d in drops),
            "drop_episodes": len(drops),
            "retry_penalty_seconds": sum(d.penalty for d in drops),
        }
