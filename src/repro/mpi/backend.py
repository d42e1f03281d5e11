"""Execution backends: how the simulated ranks actually run.

A :class:`~repro.mpi.runtime.Runtime` owns the per-rank state (clocks,
profiles, mailboxes) and the MPI semantics; a :class:`Backend` decides
what carries each rank:

* ``threads`` — one Python thread per rank in this process.  Zero
  setup cost and shared-memory payload passing, but real kernel work
  serialises on the GIL, so wall-clock numbers understate multi-core
  hardware.
* ``procs`` — one forked OS process per rank with envelope delivery
  over shared-memory rings (:mod:`repro.mpi.shm`).  Kernels run truly
  in parallel; payloads and per-rank results must be picklable.
* ``sockets`` — one OS process per rank over a socket mesh
  (:mod:`repro.net`), forked here or started on another machine.

The two multi-process backends share everything that is not transport:
the child runs :func:`serve_rank` over a *link* (:class:`ShmLink` here,
``MeshLink`` in :mod:`repro.net.agent`), the abort event sits behind one
:class:`FencedAbort`, and the parent folds the exit records with
:func:`marshal_exit_records`.

Every backend watches for deadlock the same way and with no thread of
its own: the parent asks one rule (:func:`strike_rule`) on every turn
of the wait loop it already runs for its ranks, over two counts each
rank's :class:`~repro.mpi.transport.Mailbox` keeps (``blocked`` and
``delivered``) — read directly by the threads caller, through shared
slots by procs, from ``HEARTBEAT`` frames by sockets.

Virtual-time metrics are bitwise-identical across backends by
construction: every clock charge is a pure function of the machine
model and the deterministic message schedule, never of wall-clock
scheduling.  Only wall-clock measurements differ.
"""

from __future__ import annotations

import struct
import threading
import time
import traceback
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from .errors import AbortError, MPIError, RankCrashError
from .shm import DEFAULT_RING_CAPACITY, ShmRing, dump_envelope, load_envelope

#: Deadlock look period (wall seconds).
_WATCHDOG_PERIOD = 0.5
#: Number of consecutive no-progress all-blocked looks before the rule
#: declares deadlock (guards against sampling races).
_WATCHDOG_STRIKES = 3

#: Delivery-thread poll period while its ring is empty (wall seconds).
_DELIVERY_POLL = 0.05

#: Leading byte of a flush-marker ring record.  Envelope records start
#: with one of ``dump_envelope``'s payload-kind letters, so a marker
#: can never be mistaken for an envelope.
_FLUSH_MARK = b"!"
#: Upper bound on the abort determinism fence (wall seconds): how long
#: an aborting rank waits for peers to acknowledge its flush markers.
#: Live peers answer at once; the bound only matters when a peer is
#: itself dead or wedged.
_FLUSH_TIMEOUT = 5.0

#: How long the parent waits for a rank process that has reported (or
#: been declared dead) to exit before terminating it (wall seconds).
_JOIN_TIMEOUT = 30.0


class ExecutionOutcome(NamedTuple):
    """Per-rank results of one job, in rank order."""

    results: List[Any]
    errors: List[Optional[BaseException]]
    tracebacks: List[str]


def run_rank(
    main: Callable[..., Any],
    comm,
    args: Tuple,
    kwargs: dict,
    abort_event,
) -> Tuple[Any, Optional[BaseException], str]:
    """Run one rank's ``main``, applying the job-wide failure policy.

    Returns ``(result, error, traceback_text)``.  An injected
    :class:`RankCrashError` is a *primary* failure: the abort event is
    set so every blocked peer wakes with :class:`AbortError`, but the
    traceback wrap is skipped so the recovery loop
    catches the crash itself (with rank/step/vtime intact).  A
    secondary :class:`AbortError` is recorded without re-aborting.
    """
    try:
        return main(comm, *args, **kwargs), None, ""
    except RankCrashError as exc:
        abort_event.set()
        return None, exc, ""
    except AbortError as exc:
        return None, exc, ""
    except BaseException as exc:  # noqa: BLE001 - reported to caller
        abort_event.set()
        return None, exc, traceback.format_exc()


def strike_rule() -> Callable[[int, int, int], bool]:
    """The deadlock rule, one instance per job.

    The returned ``look(live, blocked, delivered)`` is true once all
    ``live`` ranks (at least one) have been blocked, with the job's
    count of delivered envelopes unchanged, for ``_WATCHDOG_STRIKES``
    consecutive looks (several, to guard against sampling races).  The
    rule owns the look period: a look sooner than ``_WATCHDOG_PERIOD``
    after the last counted one returns false, so a parent asks it on
    every turn of its wait loop.
    """
    strikes = 0
    last_delivered = -1
    last_look = time.monotonic()

    def look(live: int, blocked: int, delivered: int) -> bool:
        nonlocal strikes, last_delivered, last_look
        now = time.monotonic()
        if now - last_look < _WATCHDOG_PERIOD:
            return False
        last_look = now
        stuck = 0 < live <= blocked and delivered == last_delivered
        strikes = strikes + 1 if stuck else 0
        last_delivered = delivered
        return strikes >= _WATCHDOG_STRIKES

    return look


def format_deadlock_report(snapshots: Dict[int, dict]) -> str:
    """Render per-rank mailbox snapshots into the diagnostic text."""
    lines = ["deadlock detected; per-rank pending state:"]
    for r in sorted(snapshots):
        s = snapshots[r]
        if s["posted"] or s["unexpected"]:
            lines.append(
                f"  rank {r}: waiting_on={s['posted']} "
                f"unmatched_inbox={s['unexpected']}"
            )
    return "\n".join(lines)


def hard_exit_record(rank: int, exitcode: Optional[int] = None) -> dict:
    """The exit record of a rank that died without shipping one."""
    return {"rank": rank, "hard_exit": True, "exitcode": exitcode}


def marshal_exit_records(
    runtime,
    records: Dict[int, dict],
    fired: bool,
    n: int,
    hard_death: Callable[[int, Optional[int]], BaseException],
) -> ExecutionOutcome:
    """Fold per-rank exit records back into the Runtime.

    Shared by every multi-process backend (procs and sockets): exit
    records carry each rank's result/error plus the state the parent
    must absorb for backend-transparent reporting — virtual clock,
    profile, mailbox snapshot, trace events, fault logs.  A rank with
    no record (or a :func:`hard_exit_record`) died without reporting;
    ``hard_death(rank, exitcode)`` builds its error — an
    :class:`MPIError` for procs, a :class:`RankCrashError` for sockets
    (where a vanished remote process is a recoverable crash).  ``fired``
    marks a tripped deadlock rule, in which case the collected
    mailbox snapshots become the runtime's deadlock report.
    """
    results: List[Any] = [None] * n
    errors: List[Optional[BaseException]] = [None] * n
    tracebacks: List[str] = [""] * n
    snapshots: Dict[int, dict] = {}
    for r in range(n):
        rec = records.get(r)
        if rec is None or rec.get("hard_exit"):
            code = rec.get("exitcode") if rec else None
            errors[r] = hard_death(r, code)
            continue
        results[r] = rec.get("result")
        errors[r] = rec.get("error")
        tracebacks[r] = rec.get("traceback", "")
        if rec.get("clock") is not None:
            runtime._clocks[r] = rec["clock"]
        if rec.get("profile") is not None:
            runtime._profiles[r] = rec["profile"]
        snapshots[r] = rec.get("snapshot") or {
            "posted": [], "unexpected": []
        }
        if runtime.trace is not None and rec.get("trace") is not None:
            runtime.trace._per_rank[r] = list(rec["trace"])
        if runtime.faults is not None:
            runtime.faults.crash_log.extend(rec.get("crash_log", ()))
            runtime.faults.drop_log.extend(rec.get("drop_log", ()))
    if fired:
        runtime._deadlock_report = format_deadlock_report(snapshots)
    return ExecutionOutcome(results, errors, tracebacks)


def fork_context(backend: str):
    """The ``fork`` multiprocessing context both process backends need."""
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        raise MPIError(
            f"the {backend} backend forks its local ranks and requires the "
            "'fork' start method (POSIX only); use backend='threads' on "
            "this platform"
        )
    return mp.get_context("fork")


def stop_process(p, grace: float) -> None:
    """Give ``p`` ``grace`` seconds to exit; terminate, then kill, one
    that will not.  The one stop ladder of rank processes, subprocess
    agents and service workers."""
    p.join(timeout=grace)
    if p.is_alive():
        p.terminate()
        p.join(timeout=5.0)
        if p.is_alive():  # pragma: no cover - stuck in C code
            p.kill()
            p.join(timeout=5.0)


def reap(procs) -> None:
    """Join resolved rank processes; stop any that will not exit."""
    for p in procs:
        if p is not None:
            stop_process(p, _JOIN_TIMEOUT)


class Backend:
    """Strategy interface: execute a job over a Runtime's ranks."""

    name = "?"

    def execute(
        self, runtime, main: Callable[..., Any], args: Tuple, kwargs: dict
    ) -> ExecutionOutcome:
        raise NotImplementedError


class ThreadsBackend(Backend):
    """One Python thread per rank (the original execution model).

    All ranks — including single-rank jobs — run on worker threads
    while the caller joins them in ``_WATCHDOG_PERIOD`` slices and asks
    the deadlock rule in between, so deadlock is caught at every job
    size.
    """

    name = "threads"

    def execute(self, runtime, main, args, kwargs) -> ExecutionOutcome:
        n = runtime.nranks
        results: List[Any] = [None] * n
        errors: List[Optional[BaseException]] = [None] * n
        tracebacks: List[str] = [""] * n
        boxes, finished = runtime._mailboxes, runtime._finished
        abort = runtime.abort_event

        def worker(rank: int) -> None:
            comm = runtime.world_comm(rank)
            res, err, tb = run_rank(main, comm, args, kwargs, abort)
            results[rank], errors[rank], tracebacks[rank] = res, err, tb
            finished[rank] = True
            abort.release()

        threads = [
            threading.Thread(
                target=worker, args=(r,), name=f"rank-{r}", daemon=True
            )
            for r in range(n)
        ]
        deadlocked = strike_rule()
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():
                t.join(_WATCHDOG_PERIOD)
                if abort.is_set():
                    continue
                live = [box for box, done in zip(boxes, finished) if not done]
                if deadlocked(len(live), sum(box.blocked for box in live),
                              sum(box.delivered for box in boxes)):
                    runtime._deadlock_report = format_deadlock_report(
                        {r: box.snapshot() for r, box in enumerate(boxes)}
                    )
                    abort.set()
        return ExecutionOutcome(results, errors, tracebacks)


class _RingMailbox:
    """Sender-side stand-in for a remote rank's mailbox (procs backend).

    Exposes exactly the one method senders call on a *remote* mailbox
    (``deliver``); matching still happens in the destination process,
    inside its real :class:`Mailbox`, preserving the thread backend's
    semantics.  Per-source FIFO holds because each sender pushes its
    records into the destination ring in program order and the ring is
    consumed in order.
    """

    __slots__ = ("_ring", "_abort", "_give_up", "_what")

    def __init__(self, ring: ShmRing, abort, finished, dst: int):
        self._ring = ring
        self._abort = abort
        # If the destination already finished its main it can never
        # receive; drop instead of blocking on a full ring (the threads
        # backend likewise just leaves such messages unmatched).
        self._give_up = lambda: finished[dst] == 1
        self._what = f"send to rank {dst}"

    def deliver(self, env) -> None:
        self._ring.push(
            dump_envelope(env), abort_event=self._abort,
            give_up=self._give_up, what=self._what,
        )


class FencedAbort:
    """The job's abort event as one rank process sees it, behind the
    determinism fence.

    In the threads backend every send lands in the destination mailbox
    before the sender's next statement runs, so by the time a crashing
    rank sets the abort event, everything it managed to send is already
    delivered.  Between processes delivery is asynchronous (a shm ring
    drained by a background thread; a peer socket that is unordered
    against the control connection the abort travels on): without a
    fence, a survivor blocked in a wait races the crashed rank's final
    envelopes against the abort flag, and the "completion wins" contract
    (see :meth:`repro.mpi.transport.Mailbox.wait_for`) degenerates into
    a scheduling accident — recovery reports diverge from the threads
    backend run to run.

    ``set`` therefore first runs the link's ``flush``: every peer
    acknowledges a marker sent *behind* this rank's envelopes on the
    same FIFO channel, so when the abort finally becomes visible
    job-wide (``event.set()``: a shared event for procs, an ``ABORT``
    frame to the driver for sockets), the survivors' mailboxes already
    hold exactly what the fault plan says they should.  ``flush`` is
    bounded by ``_FLUSH_TIMEOUT`` and is skipped when this process
    already knows the job is aborted.
    """

    __slots__ = ("_event", "_flush", "is_set", "wait")

    def __init__(self, event, flush: Callable[[], None]):
        self._event = event
        self._flush = flush
        # Event API relied on by waits and ring pushes.
        self.is_set = event.is_set
        self.wait = event.wait

    def set(self) -> None:
        if not self._event.is_set():
            try:
                self._flush()
            except Exception:  # the fence must never mask the abort
                pass
        self._event.set()


class _ShmJob:
    """The process-shared state of one procs job: created by the parent
    before it forks, inherited by every rank."""

    def __init__(self, ctx, nranks: int, ring_capacity: int):
        self.abort = ctx.Event()
        #: ``(blocked, delivered)`` of rank ``r``'s mailbox in slots
        #: ``2r`` and ``2r + 1``, for the parent's deadlock rule.  One
        #: writer per slot (the rank's delivery thread) and no lock, so
        #: a rank killed mid-write leaves nothing held.
        self.status = ctx.RawArray("q", 2 * nranks)
        self.finished = ctx.RawArray("b", nranks)
        #: ``(src, dst)`` flush-marker ack counters for the abort fence.
        #: Lock-free like ``status``: slot ``src * n + dst`` has one
        #: writer (rank ``dst``'s delivery thread), so a rank killed
        #: mid-ack leaves nothing held for a later ``abort.set()`` to
        #: wait on.
        self.flush_acks = ctx.RawArray("q", nranks * nranks)
        self.rings = [ShmRing(ctx, ring_capacity) for _ in range(nranks)]


class ShmLink:
    """The shm-ring transport as one rank sees it (see :func:`serve_rank`)."""

    backend = "procs"

    def __init__(self, job: _ShmJob, rank: int, conn):
        self._job = job
        self._rank = rank
        self._conn = conn
        self._stop = threading.Event()
        self.abort = FencedAbort(job.abort, self._flush)

    def peer(self, dst: int) -> _RingMailbox:
        job = self._job
        return _RingMailbox(job.rings[dst], self.abort, job.finished, dst)

    def start(self, local_box) -> None:
        threading.Thread(
            target=self._drain, args=(local_box,),
            name=f"deliver-{self._rank}", daemon=True,
        ).start()

    def _drain(self, mailbox) -> None:
        """Drain this rank's ring into its in-process mailbox, and
        publish the mailbox's ``(blocked, delivered)`` after every pop
        and every idle poll."""
        ring = self._job.rings[self._rank]
        status, slot = self._job.status, 2 * self._rank
        while True:
            data = ring.pop(timeout=_DELIVERY_POLL)
            if data is None:
                if self._stop.is_set():
                    return
            elif data[:1] == _FLUSH_MARK:
                self._ack_flush(*struct.unpack("<I", data[1:5]))
            else:
                mailbox.deliver(load_envelope(data))
            status[slot] = mailbox.blocked
            status[slot + 1] = mailbox.delivered

    def _ack_flush(self, src: int) -> None:
        # Ring FIFO: everything ``src`` pushed before its marker has
        # been delivered just above.
        self._job.flush_acks[src * len(self._job.rings) + self._rank] += 1

    def _flush(self) -> None:
        """Push a marker into every live peer's ring; wait for the acks.

        Skips destinations that already finished — a finished rank
        consumes nothing, and its delivery thread may be gone.
        """
        job, me = self._job, self._rank
        n = len(job.rings)
        deadline = time.monotonic() + _FLUSH_TIMEOUT
        mark = _FLUSH_MARK + struct.pack("<I", me)
        baselines: Dict[int, int] = {}
        for dst in range(n):
            if dst == me:
                continue
            base = job.flush_acks[me * n + dst]
            if job.rings[dst].push(
                mark,
                give_up=lambda d=dst: (
                    job.finished[d] == 1 or time.monotonic() > deadline
                ),
                what=f"flush to rank {dst}",
            ):
                baselines[dst] = base
        for dst, base in baselines.items():
            while (time.monotonic() < deadline
                   and job.finished[dst] != 1
                   and job.flush_acks[me * n + dst] <= base):
                time.sleep(0.001)

    def retire(self) -> None:
        self._job.finished[self._rank] = 1
        self._stop.set()

    def ship(self, record: dict) -> None:
        self._conn.send(record)

    def close(self) -> None:
        self._conn.close()


def _send_record(link, record: dict, rank: int) -> None:
    """Ship the exit record to the parent, degrading if unpicklable."""
    try:
        link.ship(record)
        return
    except Exception:
        pass
    err = record.get("error")
    detail = f" (original error: {type(err).__name__})" if err else ""
    record["result"] = None
    record["error"] = MPIError(
        f"rank {rank} produced an unpicklable result or error{detail}; "
        f"the {link.backend} backend requires picklable per-rank values"
    )
    record["trace"] = None
    link.abort.set()
    try:
        link.ship(record)
    except Exception:
        record["clock"] = None
        record["profile"] = None
        link.ship(record)


def serve_rank(runtime, rank: int, main, args, kwargs, link) -> None:
    """The life of one rank in its own process, over any transport.

    ``runtime`` is this process's private copy (a fork snapshot, or one
    built from a ``JOB`` frame); only the pieces that must be *shared*
    are swapped for what the ``link`` supplies:

    ===================  ============================================
    ``link.abort``       the job abort event (a :class:`FencedAbort`)
    ``link.peer(dst)``   ``deliver(env)`` towards a remote rank
    ``link.start(box)``  begin draining inbound envelopes into ``box``
    ``link.retire()``    this rank's ``main`` is over
    ``link.ship(rec)``   send the exit record to the parent/driver
    ``link.close()``     release the transport
    ===================  ============================================

    The channel counters ``runtime.seq`` are deliberately process-local:
    each counter key ``(src, dst)`` is only ever incremented by the
    ``src`` rank, so local counters produce exactly the sequence
    numbers the shared one would — which keeps fault-injection drop
    decisions (keyed on seq) identical to the threads backend.  An exit
    record always ships, even when the link fails to start.
    """
    record: dict = {"rank": rank}
    local_box = runtime._mailboxes[rank]
    abort = link.abort
    try:
        runtime.abort_event = abort
        runtime.seq = {}
        link.start(local_box)
        runtime._mailboxes = [
            local_box if r == rank else link.peer(r)
            for r in range(runtime.nranks)
        ]
        comm = runtime.world_comm(rank)
        result, error, tb = run_rank(main, comm, args, kwargs, abort)
        record.update(result=result, error=error, traceback=tb)
    except BaseException as exc:  # noqa: BLE001 - setup failure
        record.update(
            result=None, error=exc, traceback=traceback.format_exc()
        )
        abort.set()
    finally:
        link.retire()
        record["clock"] = runtime._clocks[rank]
        record["profile"] = runtime._profiles[rank]
        record["snapshot"] = local_box.snapshot()
        if runtime.trace is not None:
            record["trace"] = list(runtime.trace._per_rank[rank])
        if runtime.faults is not None:
            record["crash_log"] = list(runtime.faults.crash_log)
            record["drop_log"] = list(runtime.faults.drop_log)
        try:
            _send_record(link, record, rank)
        finally:
            link.close()


def _rank_process(runtime, rank, main, args, kwargs, job, conn) -> None:
    """Child-process body of the procs backend."""
    serve_rank(runtime, rank, main, args, kwargs, ShmLink(job, rank, conn))


class ProcsBackend(Backend):
    """One forked OS process per rank; shared-memory envelope delivery.

    Escapes the GIL: real (``work_mode="real"``) kernels execute truly
    concurrently across cores.  Per-process :class:`VirtualClock`,
    :class:`RankProfile`, trace events and fault logs are marshalled
    back to the parent through an exit-record pipe, so post-run
    reporting (``clock_stats``, ``job_profile``, recovery loops) is
    backend-transparent.

    Requirements: the ``fork`` start method (POSIX), and picklable
    message payloads, per-rank return values, and exceptions.
    """

    name = "procs"

    def __init__(self, ring_capacity: int = DEFAULT_RING_CAPACITY):
        self.ring_capacity = ring_capacity

    def execute(self, runtime, main, args, kwargs) -> ExecutionOutcome:
        ctx = fork_context(self.name)
        n = runtime.nranks
        job = _ShmJob(ctx, n, self.ring_capacity)
        pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
        procs = []
        try:
            for r in range(n):
                p = ctx.Process(
                    target=_rank_process,
                    args=(runtime, r, main, args, kwargs, job, pipes[r][1]),
                    name=f"rank-{r}",
                    daemon=True,
                )
                p.start()
                pipes[r][1].close()  # child keeps the write end
                procs.append(p)
            records, fired = self._collect(procs, pipes, job)
            reap(procs)
        finally:
            for r in range(n):
                pipes[r][0].close()
            for p in procs:
                if p.is_alive():  # pragma: no cover - defensive
                    p.terminate()
                    p.join(timeout=5.0)
            for ring in job.rings:
                ring.destroy()
        return marshal_exit_records(
            runtime, records, fired, n,
            hard_death=lambda r, code: MPIError(
                f"rank {r} terminated unexpectedly (exit code {code})"
            ),
        )

    @staticmethod
    def _collect(procs, pipes, job) -> Tuple[Dict[int, dict], bool]:
        """Read one exit record per rank, detecting hard deaths and
        deadlock; return ``(records, fired)``.

        A pipe EOF is not enough on its own: every forked child
        inherits the OS-level write ends of its siblings' pipes, so a
        rank that dies without sending (``os._exit``, signal,
        interpreter crash) only EOFs once *all* children exited — and
        its surviving peers may be blocked waiting for it.  So when a
        wait times out, dead processes whose pipes are silent are
        declared hard deaths and the job is aborted, which releases the
        blocked peers within one poll tick.  Every turn also asks the
        deadlock rule over the ranks' ``job.status`` slots; ``fired``
        says it aborted the job.
        """
        from multiprocessing import connection

        n = len(procs)
        abort, status, finished = job.abort, job.status, job.finished
        conns = {pipes[r][0]: r for r in range(n)}
        records: Dict[int, dict] = {}
        deadlocked = strike_rule()
        fired = False

        def died(rank) -> None:
            abort.set()
            records[rank] = hard_exit_record(rank)

        def take(conn, rank) -> None:
            try:
                records[rank] = conn.recv()
            except EOFError:
                died(rank)

        while conns:
            if not abort.is_set():
                slots = status[:]
                live = [r for r in range(n) if not finished[r]]
                if deadlocked(len(live), sum(slots[2 * r] for r in live),
                              sum(slots[1::2])):
                    fired = True
                    abort.set()
            ready = connection.wait(list(conns), timeout=0.25)
            for conn in ready:
                take(conn, conns.pop(conn))
            if ready:
                continue
            for conn, rank in list(conns.items()):
                p = procs[rank]
                if p.is_alive():
                    continue
                p.join()  # reap; any sent record is now in the pipe
                del conns[conn]
                if conn.poll(0):
                    take(conn, rank)
                else:
                    died(rank)
        for rank, rec in records.items():
            if rec.get("hard_exit"):
                procs[rank].join(timeout=5.0)
                rec["exitcode"] = procs[rank].exitcode
        return records, fired


def _sockets_factory() -> Backend:
    # Deferred import: repro.net imports this module, so the table
    # entry must not import it back at module load.
    from ..net.backend import SocketBackend

    return SocketBackend()


#: Name -> zero-argument factory.  Anything else reaches a Runtime as a
#: :class:`Backend` instance (``Runtime(backend=SocketBackend(...))``).
_BACKENDS: Dict[str, Callable[[], Backend]] = {
    ThreadsBackend.name: ThreadsBackend,
    ProcsBackend.name: ProcsBackend,
    "sockets": _sockets_factory,
}


def available_backends() -> List[str]:
    """Names accepted by ``Runtime(backend=...)`` / ``--backend``."""
    return sorted(_BACKENDS)


def resolve_backend(spec: Union[str, Backend]) -> Backend:
    """Turn a backend name or instance into a :class:`Backend`."""
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        try:
            factory = _BACKENDS[spec]
        except KeyError:
            raise MPIError(
                f"unknown backend {spec!r}; "
                f"available: {', '.join(available_backends())}"
            ) from None
        return factory()
    raise MPIError(f"backend must be a name or Backend, got {type(spec)!r}")
