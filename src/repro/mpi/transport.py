"""In-process message transport: envelopes, mailboxes, matching.

Each simulated rank owns one :class:`Mailbox`.  A send deposits an
:class:`Envelope` in the destination mailbox; matching follows the MPI
two-queue scheme:

* a queue of *posted receives* not yet matched, and
* a queue of *unexpected messages* not yet matched.

A send first scans the posted-receive queue in posting order; a receive
first scans the unexpected queue in arrival order.  Per source, arrival
order equals the sender's program order, so the MPI non-overtaking
guarantee holds for each ``(source, dest, comm, tag)`` channel.

Wall-clock thread scheduling never influences *virtual* message timing:
an envelope carries the sender's virtual injection time, and the
receiver computes arrival from the network model when the match
completes.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from .datatypes import ANY_SOURCE, ANY_TAG
from .errors import AbortError

#: Polling granularity (wall seconds) for blocked waits.  Blocked
#: threads wake at this cadence only to check for an abort raised in
#: another process; completion and the thread backend's abort
#: (:class:`WakingAbort`) wake the waiter directly.
_WAIT_POLL = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retransmission schedule for dropped messages.

    When a :class:`~repro.faults.FaultInjector` drops an envelope, the
    transport models a reliable layer underneath: the sender detects the
    loss (after a backoff timeout) and re-injects.  Attempt ``i``
    (0-based) waits ``backoff_base * backoff_factor**i`` virtual seconds
    before retransmitting; the whole penalty is charged to the sender's
    virtual clock (see :meth:`repro.mpi.clock.VirtualClock.charge_retry`),
    so retried messages hit the wire later and every downstream arrival
    time shifts deterministically.  ``max_retries`` bounds consecutive
    drops of one envelope so a lossy link can never livelock a run.
    """

    #: Backoff before the first retransmission (virtual seconds).
    backoff_base: float = 20e-6
    #: Multiplier applied to the backoff after every failed attempt.
    backoff_factor: float = 2.0
    #: Hard bound on consecutive drops of a single envelope.
    max_retries: int = 12

    def __post_init__(self) -> None:
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base >= 0 and backoff_factor >= 1 required")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    def backoff_seconds(self, attempts: int) -> float:
        """Total backoff for ``attempts`` consecutive drops."""
        return sum(
            self.backoff_base * self.backoff_factor**i
            for i in range(attempts)
        )


@dataclass(slots=True, eq=False)
class Envelope:
    """One message in flight.

    ``wire_vtime`` is the sender's virtual clock when the message hit
    the wire (i.e. after the sender-side overhead was charged).  Two
    envelopes are equal only if they are the same message, so taking one
    out of a queue never compares payloads.
    """

    src: int
    dst: int
    cid: int
    tag: int
    payload: Any
    nbytes: int
    wire_vtime: float
    seq: int


class PendingRecv:
    """A posted receive waiting for a matching envelope.

    ``wanted`` marks a receive its owner is currently blocked on in
    :meth:`Mailbox.wait_for`; completion is ``envelope is not None``.
    """

    __slots__ = ("cid", "source", "tag", "envelope", "wanted")

    def __init__(self, cid: int, source: int, tag: int):
        self.cid = cid
        self.source = source
        self.tag = tag
        self.envelope: Optional[Envelope] = None
        self.wanted = False


class Mailbox:
    """Per-rank matching engine (posted receives + unexpected queue).

    Concurrency invariants — all state transitions happen under
    ``lock``, which matters doubly for the process backend, whose
    dedicated delivery thread widens the window in which ``deliver``
    runs concurrently with the owning rank's ``post_recv``:

    * an envelope is matched to at most one :class:`PendingRecv`, and a
      :class:`PendingRecv` receives at most one envelope — ``deliver``
      only fills receives still in ``posted`` with ``envelope is
      None``, and removes them from the queue in the same critical
      section;
    * the owner is woken only after ``pr.envelope`` is assigned, inside
      the lock, so a woken waiter always observes the payload (no lost
      wakeup);
    * an envelope is either handed to a posted receive or appended to
      ``unexpected`` — never both, never neither — so no message is
      dropped or duplicated by a post_recv/deliver interleaving;
    * per-source arrival order is preserved: ``deliver`` appends in
      call order and both scans walk their queue front-to-back, so the
      MPI non-overtaking guarantee holds per ``(source, cid, tag)``
      channel.

    Blocking: only the owning rank's thread ever waits on a mailbox, and
    on one set of receives at a time, so one reusable wake primitive
    serves every wait.  ``_wake`` is a lock used as a binary semaphore:
    held whenever nobody is being woken, released exactly once per
    :meth:`wait_for` — by ``deliver`` when the countdown of
    still-missing ``wanted`` receives reaches zero, or by
    :meth:`interrupt` while it is above zero — and re-taken by the woken
    owner.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.lock = threading.Lock()
        self.unexpected: deque[Envelope] = deque()
        self.posted: deque[PendingRecv] = deque()
        self._wake = threading.Lock()
        self._wake.acquire()
        self._countdown = 0
        self._interrupted = False
        #: Envelopes deposited here so far: the matching progress the
        #: deadlock rule watches (with :attr:`blocked`).
        self.delivered = 0

    def deliver(self, env: Envelope) -> None:
        """Called on the *sender's* thread to deposit ``env`` here."""
        cid, src, tag = env.cid, env.src, env.tag
        with self.lock:
            self.delivered += 1
            for pr in self.posted:
                if (
                    pr.cid == cid
                    and (pr.source == src or pr.source == ANY_SOURCE)
                    and (pr.tag == tag or pr.tag == ANY_TAG)
                ):
                    pr.envelope = env
                    self.posted.remove(pr)
                    if pr.wanted:
                        self._countdown -= 1
                        if self._countdown == 0:
                            self._wake.release()
                    return
            self.unexpected.append(env)

    def post_recv(self, cid: int, source: int, tag: int) -> PendingRecv:
        """Post a receive; match immediately if a message is waiting."""
        return self.post_recvs(cid, (source,), tag)[0]

    def post_recvs(
        self, cid: int, sources: Sequence[int], tag: int
    ) -> List[PendingRecv]:
        """Post one receive per entry of ``sources``, in order, in one
        critical section; each matches a waiting message at once, as
        :meth:`post_recv` would have, or joins ``posted``."""
        prs = [PendingRecv(cid, source, tag) for source in sources]
        with self.lock:
            for pr in prs:
                source = pr.source
                for env in self.unexpected:
                    if (
                        env.cid == cid
                        and (source == ANY_SOURCE or env.src == source)
                        and (tag == ANY_TAG or env.tag == tag)
                    ):
                        pr.envelope = env
                        self.unexpected.remove(env)
                        break
                else:
                    self.posted.append(pr)
        return prs

    def wait_for(
        self,
        pendings: Sequence[PendingRecv],
        abort_event: threading.Event,
        what: str = "recv",
    ) -> None:
        """Block the owner until every receive in ``pendings`` has its
        envelope.

        Blocks at most once: the sender that lands the *last* wanted
        envelope wakes the owner, and so does :meth:`interrupt`.  Raises
        :class:`AbortError` if the runtime aborts while we wait: the
        abort event is checked once *before* blocking; the thread
        backend's abort interrupts the blocked owners directly
        (:class:`WakingAbort`), and an abort that arrives from another
        process is seen within one :data:`_WAIT_POLL` poll tick
        (``tests/test_faults.py``).

        Abort-vs-completion ordering: **completion wins**, before
        blocking and after any wake alike.  A matched envelope is a
        committed local fact, so reporting success cannot be wrong, and
        only waits that are genuinely still missing a receive observe
        the abort.  That keeps post-crash virtual clocks deterministic —
        a survivor consumes exactly what its dead peer managed to send,
        a function of the fault plan and never of which thread sampled
        the abort flag first — which the recovery loop's crashed-attempt
        makespans (and the ``solver/fault_campaign`` bench gate) depend
        on.
        """
        with self.lock:
            missing = [pr for pr in pendings if pr.envelope is None]
            if not missing:
                return
            if abort_event.is_set():
                raise AbortError(f"job aborted while blocked in {what}")
            for pr in missing:
                pr.wanted = True
            self._countdown = len(missing)
        try:
            while not self._wake.acquire(timeout=_WAIT_POLL):
                if abort_event.is_set():
                    self.interrupt()
        finally:
            with self.lock:
                for pr in missing:
                    pr.wanted = False
                # Woken by interrupt: completion still wins.
                cut = self._interrupted and any(
                    pr.envelope is None for pr in missing
                )
                self._interrupted = False
        if cut:
            raise AbortError(f"job aborted while blocked in {what}")

    @property
    def blocked(self) -> bool:
        """Whether the owner is blocked in :meth:`wait_for` with a
        receive still missing."""
        with self.lock:
            return self._countdown > 0

    def interrupt(self) -> None:
        """Wake the owner if it is blocked in :meth:`wait_for` with a
        receive still missing; it then re-checks and, unless the wait
        completed meanwhile, raises :class:`AbortError`."""
        with self.lock:
            if self._countdown > 0:
                self._countdown = 0
                self._interrupted = True
                self._wake.release()

    def snapshot(self) -> dict:
        """Debug snapshot used in deadlock reports.

        ``posted`` lists every receive posted and still unmatched — a
        rank deadlocked inside a stacked pairwise exchange
        (``PairwisePlan.exchange``) also lists the receives it posted
        up front for the fields after the one it is blocked on.
        """
        with self.lock:
            return {
                "unexpected": [
                    (e.src, e.tag, e.cid, e.nbytes) for e in self.unexpected
                ],
                "posted": [
                    (p.source, p.tag, p.cid)
                    for p in self.posted
                    if p.envelope is None
                ],
            }


class WakingAbort(threading.Event):
    """The thread backend's job abort event, which also wakes the ranks
    it leaves blocked.

    Once the event is set and every rank that has not finished is
    blocked in a wait, no send can complete any of those waits any
    more, so :meth:`release` interrupts them all at once
    (:meth:`Mailbox.interrupt`) instead of leaving each to its next
    :data:`_WAIT_POLL` tick.  ``set`` and every finishing rank call it.
    Waking a blocked rank while a peer still runs would race its abort
    against a send that may yet complete its wait, and make post-crash
    clocks depend on thread scheduling.
    """

    def __init__(self, mailboxes: Sequence[Mailbox], finished: Sequence[bool]):
        super().__init__()
        self._mailboxes = mailboxes
        self._finished = finished

    def set(self) -> None:
        super().set()
        self.release()

    def release(self) -> None:
        if not self.is_set():
            return
        live = [box for box, done in zip(self._mailboxes, self._finished)
                if not done]
        if all(box.blocked for box in live):
            for box in live:
                box.interrupt()


class ChannelSeq:
    """Monotone per-(src, dst) sequence numbers for debugging/tracing.

    Lock-free: channel ``(src, dst)`` is only ever advanced by rank
    ``src``'s own thread.
    """

    def __init__(self) -> None:
        self._counters: dict = {}

    def next(self, src: int, dst: int) -> int:
        key = (src, dst)
        n = self._counters.get(key, 0)
        self._counters[key] = n + 1
        return n
