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

Virtual-time metrics are bitwise-identical across backends by
construction: every clock charge is a pure function of the machine
model and the deterministic message schedule, never of wall-clock
scheduling.  Only wall-clock measurements differ.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .clock import VirtualClock
from .errors import AbortError, MPIError, RankCrashError
from .profiler import RankProfile
from .shm import (
    DEFAULT_RING_CAPACITY,
    SharedBlockTracker,
    ShmRing,
    dump_envelope,
    load_envelope,
)
from .transport import ChannelSeq, Mailbox

#: Watchdog polling period (wall seconds).
_WATCHDOG_PERIOD = 0.5
#: Number of consecutive no-progress all-blocked observations before the
#: watchdog declares deadlock (guards against sampling races).
_WATCHDOG_STRIKES = 3

#: Delivery-thread poll period while its ring is empty (wall seconds).
_DELIVERY_POLL = 0.05

#: Leading byte of a flush-marker ring record.  Envelope records start
#: with one of ``dump_envelope``'s payload-kind letters, so a marker
#: can never be mistaken for an envelope.
_FLUSH_MARK = b"!"
#: Upper bound on the abort determinism fence (wall seconds): how long
#: an aborting rank waits for peers to acknowledge its flush markers.
_FLUSH_TIMEOUT = 5.0


@dataclass
class ExecutionOutcome:
    """Per-rank results of one job, in rank order."""

    results: List[Any]
    errors: List[Optional[BaseException]]
    tracebacks: List[str] = field(default_factory=list)


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
    set so every blocked peer wakes with :class:`AbortError` within one
    poll tick, but the traceback wrap is skipped so the recovery loop
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


def watch_loop(
    live_count: Callable[[], int],
    tracker,
    abort_event,
    fire: Callable[[], None],
) -> None:
    """Deadlock watchdog: call ``fire`` when nothing can ever progress.

    Backend-agnostic: ``tracker`` is any object with ``blocked`` and
    ``progress_value`` (in-process or shared counters) and
    ``abort_event`` any event with ``wait(timeout)``.
    """
    strikes = 0
    last_progress = -1
    while not abort_event.wait(_WATCHDOG_PERIOD):
        live = live_count()
        if live == 0:
            return
        if tracker.blocked >= live and tracker.progress_value == last_progress:
            strikes += 1
            if strikes >= _WATCHDOG_STRIKES:
                fire()
                return
        else:
            strikes = 0
        last_progress = tracker.progress_value


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
    no record (or one flagged ``hard_exit``) died without reporting;
    ``hard_death(rank, exitcode)`` builds its error — an
    :class:`MPIError` for procs, a :class:`RankCrashError` for sockets
    (where a vanished remote process is a recoverable crash).  ``fired``
    marks a tripped deadlock watchdog, in which case the collected
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
    under the deadlock watchdog, so ``deadlock_detection=True`` means
    the same thing at every job size.
    """

    name = "threads"

    def execute(self, runtime, main, args, kwargs) -> ExecutionOutcome:
        n = runtime.nranks
        results: List[Any] = [None] * n
        errors: List[Optional[BaseException]] = [None] * n
        tracebacks: List[str] = [""] * n

        def worker(rank: int) -> None:
            comm = runtime.world_comm(rank)
            res, err, tb = run_rank(
                main, comm, args, kwargs, runtime.abort_event
            )
            results[rank], errors[rank], tracebacks[rank] = res, err, tb
            with runtime._finished_lock:
                runtime._finished[rank] = True

        threads = [
            threading.Thread(
                target=worker, args=(r,), name=f"rank-{r}", daemon=True
            )
            for r in range(n)
        ]
        watchdog = None
        if runtime.deadlock_detection:

            def fire() -> None:
                snap = {
                    r: runtime._mailboxes[r].snapshot() for r in range(n)
                }
                runtime._deadlock_report = format_deadlock_report(snap)
                runtime.abort_event.set()

            watchdog = threading.Thread(
                target=watch_loop,
                args=(runtime._live_count, runtime.tracker,
                      runtime.abort_event, fire),
                name="watchdog",
                daemon=True,
            )
            watchdog.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        runtime.abort_event.set()  # stop the watchdog
        if watchdog is not None:
            watchdog.join()
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

    __slots__ = ("_ring", "_abort", "_finished", "_dst")

    def __init__(self, ring: ShmRing, abort, finished, dst: int):
        self._ring = ring
        self._abort = abort
        self._finished = finished
        self._dst = dst

    def deliver(self, env) -> None:
        # If the destination already finished its main it can never
        # receive; drop instead of blocking on a full ring (the threads
        # backend likewise just leaves such messages unmatched).
        self._ring.push(
            dump_envelope(env),
            abort_event=self._abort,
            give_up=lambda: self._finished[self._dst] == 1,
            what=f"send to rank {self._dst}",
        )


class _FencedAbort:
    """Determinism fence around the shared abort event (procs backend).

    In the threads backend every send lands in the destination mailbox
    before the sender's next statement runs, so by the time a crashing
    rank sets the abort event, everything it managed to send is already
    delivered.  In the procs backend delivery rides the shm rings on a
    background thread: without a fence, a survivor blocked in a wait
    races the crashed rank's final envelopes against the abort flag,
    and the "completion wins" contract (see
    :meth:`repro.mpi.transport.Mailbox.wait_for`) degenerates into a
    scheduling accident — recovery reports diverge from the threads
    backend run to run.

    ``set`` therefore first pushes a flush marker into every peer ring
    and waits for each owning delivery thread to acknowledge it (via
    the shared ``acks`` counter array).  Ring FIFO then guarantees every
    envelope this rank pushed *before* the marker has been delivered,
    so when the shared event finally becomes visible, the survivors'
    mailboxes already hold exactly what the fault plan says they
    should.  Mirrors the FLUSH/FLUSH_ACK fence of the sockets backend.

    The wait is bounded (``_FLUSH_TIMEOUT``) and skips destinations
    that already finished — a finished rank consumes nothing, and its
    delivery thread may be gone.  Ack counters are compared against a
    per-call baseline, never reset, so pooled workers can reuse one
    shared array across jobs.
    """

    __slots__ = ("_event", "_rank", "_rings", "_finished", "_acks", "_n")

    def __init__(self, event, rank, rings, finished, acks):
        self._event = event
        self._rank = rank
        self._rings = rings
        self._finished = finished
        self._acks = acks
        self._n = len(rings)

    # Event API relied on by waits, ring pushes and the watchdog.

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout=None) -> bool:
        return self._event.wait(timeout)

    def clear(self) -> None:  # pragma: no cover - API symmetry
        self._event.clear()

    def set(self) -> None:
        if not self._event.is_set():
            try:
                self._flush()
            except Exception:  # the fence must never mask the abort
                pass
        self._event.set()

    def _flush(self) -> None:
        deadline = time.monotonic() + _FLUSH_TIMEOUT
        me = self._rank
        mark = _FLUSH_MARK + struct.pack("<I", me)
        baselines: Dict[int, int] = {}
        for dst in range(self._n):
            if dst == me:
                continue
            with self._acks.get_lock():
                base = self._acks[me * self._n + dst]
            if self._rings[dst].push(
                mark,
                give_up=lambda d=dst: (
                    self._finished[d] == 1 or time.monotonic() > deadline
                ),
                what=f"flush to rank {dst}",
            ):
                baselines[dst] = base
        for dst, base in baselines.items():
            idx = me * self._n + dst
            while (time.monotonic() < deadline
                   and self._finished[dst] != 1):
                with self._acks.get_lock():
                    if self._acks[idx] > base:
                        break
                time.sleep(0.001)


def _delivery_loop(
    ring: ShmRing, mailbox: Mailbox, tracker, stop, on_flush=None
) -> None:
    """Drain the owning rank's ring into its in-process mailbox."""
    while True:
        data = ring.pop(timeout=_DELIVERY_POLL)
        if data is None:
            if stop.is_set():
                return
            continue
        if data[:1] == _FLUSH_MARK:
            if on_flush is not None:
                (src,) = struct.unpack("<I", data[1:5])
                on_flush(src)
            continue
        mailbox.deliver(load_envelope(data))
        tracker.bump()


def _send_record(conn, record: dict, rank: int, abort_event,
                 backend: str = "procs") -> None:
    """Ship the exit record to the parent, degrading if unpicklable."""
    try:
        conn.send(record)
        return
    except Exception:
        pass
    err = record.get("error")
    detail = f" (original error: {type(err).__name__})" if err else ""
    record["result"] = None
    record["error"] = MPIError(
        f"rank {rank} produced an unpicklable result or error{detail}; "
        f"the {backend} backend requires picklable per-rank values"
    )
    record["trace"] = None
    abort_event.set()
    try:
        conn.send(record)
    except Exception:
        record["clock"] = None
        record["profile"] = None
        conn.send(record)


def _rank_process(
    runtime, rank, main, args, kwargs, abort, tracker, finished, rings,
    flush_acks, conn
) -> None:
    """Child-process body: patch the forked Runtime copy, run the rank.

    The fork gives this process a private copy of the whole Runtime;
    only the pieces that must be *shared* are swapped for their
    process-safe counterparts (abort event, block tracker, peer
    mailboxes).  ``ChannelSeq`` is deliberately process-local: each
    counter key ``(src, dst)`` is only ever incremented by the ``src``
    rank, so local counters produce exactly the sequence numbers the
    shared one would — which keeps fault-injection drop decisions
    (keyed on seq) identical to the threads backend.
    """
    record: dict = {"rank": rank}
    local_box = runtime._mailboxes[rank]
    stop = threading.Event()
    abort = _FencedAbort(abort, rank, rings, finished, flush_acks)

    def _ack_flush(src: int) -> None:
        with flush_acks.get_lock():
            flush_acks[src * runtime.nranks + rank] += 1

    try:
        runtime.abort_event = abort
        runtime.tracker = tracker.writer(rank)
        runtime.seq = ChannelSeq()
        runtime._mailboxes = [
            local_box
            if r == rank
            else _RingMailbox(rings[r], abort, finished, r)
            for r in range(runtime.nranks)
        ]
        deliverer = threading.Thread(
            target=_delivery_loop,
            args=(rings[rank], local_box, tracker.writer(rank, delivery=True),
                  stop, _ack_flush),
            name=f"deliver-{rank}",
            daemon=True,
        )
        deliverer.start()
        comm = runtime.world_comm(rank)
        result, error, tb = run_rank(main, comm, args, kwargs, abort)
        record.update(result=result, error=error, traceback=tb)
    except BaseException as exc:  # noqa: BLE001 - setup failure
        record.update(
            result=None, error=exc, traceback=traceback.format_exc()
        )
        abort.set()
    finally:
        finished[rank] = 1
        stop.set()
        record["clock"] = runtime._clocks[rank]
        record["profile"] = runtime._profiles[rank]
        record["snapshot"] = local_box.snapshot()
        if runtime.trace is not None:
            record["trace"] = list(runtime.trace._per_rank[rank])
        if runtime.faults is not None:
            record["crash_log"] = list(runtime.faults.crash_log)
            record["drop_log"] = list(runtime.faults.drop_log)
        _send_record(conn, record, rank, abort)
        conn.close()


def _pool_rank_loop(
    runtime, rank, abort, tracker, finished, rings, flush_acks, cmd, rec
) -> None:
    """Persistent-worker body: serve jobs until told to stop.

    The fork happens once (at pool creation); each ``("job", ...)``
    command re-arms this process's private Runtime copy — fresh
    mailbox, clock, profile, and sequence counters, plus the machine
    model and time policy shipped with the job — and runs the rank
    exactly as the one-shot :func:`_rank_process` would.  Between jobs
    the process blocks on the command pipe, so re-arming replaces a
    fork + interpreter warm-up with one ``recv``.
    """
    abort = _FencedAbort(abort, rank, rings, finished, flush_acks)

    def _ack_flush(src: int) -> None:
        with flush_acks.get_lock():
            flush_acks[src * runtime.nranks + rank] += 1

    while True:
        try:
            msg = cmd.recv()
        except EOFError:  # parent vanished
            return
        if msg[0] == "stop":
            return
        _, main, args, kwargs, machine, time_policy = msg
        record: dict = {"rank": rank}
        local_box = Mailbox(rank)
        stop = threading.Event()
        deliverer = None
        try:
            runtime.machine = machine
            runtime.time_policy = time_policy
            runtime.abort_event = abort
            runtime.tracker = tracker.writer(rank)
            runtime.seq = ChannelSeq()
            runtime._clocks[rank] = VirtualClock()
            runtime._profiles[rank] = RankProfile(rank)
            runtime._mailboxes = [
                local_box
                if r == rank
                else _RingMailbox(rings[r], abort, finished, r)
                for r in range(runtime.nranks)
            ]
            deliverer = threading.Thread(
                target=_delivery_loop,
                args=(rings[rank], local_box,
                      tracker.writer(rank, delivery=True), stop, _ack_flush),
                name=f"deliver-{rank}",
                daemon=True,
            )
            deliverer.start()
            comm = runtime.world_comm(rank)
            result, error, tb = run_rank(main, comm, args, kwargs, abort)
            record.update(result=result, error=error, traceback=tb)
        except BaseException as exc:  # noqa: BLE001 - setup failure
            record.update(
                result=None, error=exc, traceback=traceback.format_exc()
            )
            abort.set()
        finally:
            finished[rank] = 1
            stop.set()
            if deliverer is not None:
                # The ring must be quiescent before the next job resets
                # it, so (unlike the one-shot path) the drain thread is
                # joined before the record ships.
                deliverer.join()
            record["clock"] = runtime._clocks[rank]
            record["profile"] = runtime._profiles[rank]
            record["snapshot"] = local_box.snapshot()
            record["pid"] = os.getpid()
            _send_record(rec, record, rank, abort)


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

    With ``reusable=True`` the backend keeps a persistent pool of rank
    workers: the first :meth:`execute` forks them, and every later job
    *re-arms* the same processes over a command pipe instead of
    re-forking (amortising fork + import + allocator warm-up across a
    job stream — the point of the service layer's worker pool).  The
    same backend instance must then be passed to every Runtime
    (``Runtime(backend=pool)``), all jobs must use the same ``nranks``,
    ``main``/``args`` must be picklable, and fault injection / message
    tracing are refused (those are one-shot-job features).  Call
    :meth:`close` when done; a worker that dies hard poisons the pool
    and the next execute raises.
    """

    name = "procs"

    def __init__(
        self,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        join_timeout: float = 30.0,
        reusable: bool = False,
    ):
        self.ring_capacity = ring_capacity
        self.join_timeout = join_timeout
        self.reusable = reusable
        self._pool: Optional[dict] = None
        self._broken = False
        #: Jobs served by the current pool (diagnostics / tests).
        self.jobs_served = 0

    @staticmethod
    def _context():
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise MPIError(
                "the procs backend requires the 'fork' start method "
                "(POSIX only); use backend='threads' on this platform"
            )
        return mp.get_context("fork")

    def execute(self, runtime, main, args, kwargs) -> ExecutionOutcome:
        if self.reusable:
            return self._execute_pooled(runtime, main, args, kwargs)
        ctx = self._context()
        n = runtime.nranks
        abort = ctx.Event()
        tracker = SharedBlockTracker(ctx, n)
        finished = ctx.Array("b", n, lock=False)
        # (src, dst) flush-marker ack counters for the abort fence.
        flush_acks = ctx.Array("q", n * n)
        rings = [ShmRing(ctx, self.ring_capacity) for _ in range(n)]
        pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
        procs = []
        fired = threading.Event()
        try:
            for r in range(n):
                p = ctx.Process(
                    target=_rank_process,
                    args=(
                        runtime, r, main, args, kwargs, abort, tracker,
                        finished, rings, flush_acks, pipes[r][1],
                    ),
                    name=f"rank-{r}",
                    daemon=True,
                )
                p.start()
                pipes[r][1].close()  # child keeps the write end
                procs.append(p)
            watchdog = None
            if runtime.deadlock_detection:

                def live() -> int:
                    return n - sum(finished)

                def fire() -> None:
                    fired.set()
                    abort.set()

                watchdog = threading.Thread(
                    target=watch_loop,
                    args=(live, tracker, abort, fire),
                    name="watchdog",
                    daemon=True,
                )
                watchdog.start()
            records = self._collect(procs, pipes, abort)
            for p in procs:
                p.join(timeout=self.join_timeout)
                if p.is_alive():  # pragma: no cover - hard hang
                    p.terminate()
                    p.join(timeout=5.0)
            abort.set()  # stop the watchdog
            if watchdog is not None:
                watchdog.join()
        finally:
            for r in range(n):
                pipes[r][0].close()
            for p in procs:
                if p.is_alive():  # pragma: no cover - defensive
                    p.terminate()
                    p.join(timeout=5.0)
            for ring in rings:
                ring.drain_spills()
                # Fallback for hard worker death: unlink spill segments
                # whose ring record never got published (or whose
                # reader died before the unlink).
                ring.sweep_spills()
                ring.destroy()
        return self._marshal(runtime, records, fired, n)

    @staticmethod
    def _collect(procs, pipes, abort) -> Dict[int, dict]:
        """Read one exit record per rank, detecting hard deaths.

        A pipe EOF is not enough on its own: every forked child
        inherits the OS-level write ends of its siblings' pipes, so a
        rank that dies without sending (``os._exit``, signal,
        interpreter crash) only EOFs once *all* children exited — and
        its surviving peers may be blocked waiting for it.  So when a
        wait times out, dead processes whose pipes are silent are
        declared hard deaths and the job is aborted, which releases the
        blocked peers within one poll tick.
        """
        from multiprocessing import connection

        conns = {pipes[r][0]: r for r in range(len(procs))}
        records: Dict[int, dict] = {}

        def take(conn, rank) -> None:
            try:
                records[rank] = conn.recv()
            except EOFError:
                abort.set()
                records[rank] = {"rank": rank, "hard_exit": True}

        while conns:
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
                    abort.set()
                    records[rank] = {"rank": rank, "hard_exit": True}
        for rank, rec in records.items():
            if rec.get("hard_exit"):
                procs[rank].join(timeout=5.0)
                rec["exitcode"] = procs[rank].exitcode
        return records

    @staticmethod
    def _marshal(runtime, records, fired, n) -> ExecutionOutcome:
        """Fold the children's exit records back into the Runtime."""
        return marshal_exit_records(
            runtime, records, fired.is_set(), n,
            hard_death=lambda r, code: MPIError(
                f"rank {r} terminated unexpectedly (exit code {code})"
            ),
        )

    # -- persistent worker pool (reusable=True) ------------------------

    def _ensure_pool(self, runtime) -> dict:
        if self._broken:
            raise MPIError(
                "this reusable procs pool is broken (a worker died "
                "hard); create a fresh ProcsBackend"
            )
        if self._pool is not None:
            if self._pool["nranks"] != runtime.nranks:
                raise MPIError(
                    f"reusable procs pool was forked for "
                    f"{self._pool['nranks']} ranks; cannot run a "
                    f"{runtime.nranks}-rank job on it"
                )
            return self._pool
        ctx = self._context()
        n = runtime.nranks
        abort = ctx.Event()
        tracker = SharedBlockTracker(ctx, n)
        finished = ctx.Array("b", n, lock=False)
        # (src, dst) flush-marker ack counters for the abort fence;
        # monotone across pooled jobs (the fence compares baselines).
        flush_acks = ctx.Array("q", n * n)
        rings = [ShmRing(ctx, self.ring_capacity) for _ in range(n)]
        cmd_pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
        rec_pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
        procs = []
        for r in range(n):
            p = ctx.Process(
                target=_pool_rank_loop,
                args=(
                    runtime, r, abort, tracker, finished, rings,
                    flush_acks, cmd_pipes[r][0], rec_pipes[r][1],
                ),
                name=f"pool-rank-{r}",
                daemon=True,
            )
            p.start()
            rec_pipes[r][1].close()  # child keeps the write end
            procs.append(p)
        self._pool = {
            "nranks": n,
            "abort": abort,
            "tracker": tracker,
            "finished": finished,
            "rings": rings,
            "cmd_pipes": cmd_pipes,
            "rec_pipes": rec_pipes,
            "procs": procs,
        }
        return self._pool

    def worker_pids(self) -> List[int]:
        """PIDs of the live pool workers (empty before the first job)."""
        if self._pool is None:
            return []
        return [p.pid for p in self._pool["procs"]]

    def _execute_pooled(self, runtime, main, args, kwargs
                        ) -> ExecutionOutcome:
        if runtime.faults is not None or runtime.trace is not None:
            raise MPIError(
                "a reusable procs pool does not support fault injection "
                "or message tracing; run those jobs on a fresh one-shot "
                "backend"
            )
        pool = self._ensure_pool(runtime)
        n = pool["nranks"]
        # Re-arm shared state.  All workers are blocked on their command
        # pipes here (the previous job's records were all collected), so
        # nothing races these resets.
        for ring in pool["rings"]:
            ring.reset()
        for r in range(n):
            pool["finished"][r] = 0
        pool["tracker"].reset()
        pool["abort"].clear()
        fired = threading.Event()
        for r in range(n):
            pool["cmd_pipes"][r][1].send(
                ("job", main, args, kwargs,
                 runtime.machine, runtime.time_policy)
            )
        watchdog = None
        if runtime.deadlock_detection:

            def live() -> int:
                return n - sum(pool["finished"])

            def fire() -> None:
                fired.set()
                pool["abort"].set()

            watchdog = threading.Thread(
                target=watch_loop,
                args=(live, pool["tracker"], pool["abort"], fire),
                name="watchdog",
                daemon=True,
            )
            watchdog.start()
        records = self._collect(
            pool["procs"], pool["rec_pipes"], pool["abort"]
        )
        pool["abort"].set()  # stop the watchdog (cleared at next job)
        if watchdog is not None:
            watchdog.join()
        self.jobs_served += 1
        if any(rec.get("hard_exit") for rec in records.values()):
            self._broken = True
            self.close()
        return self._marshal(runtime, records, fired, n)

    def close(self) -> None:
        """Shut the persistent pool down and release its resources."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for r in range(pool["nranks"]):
            try:
                pool["cmd_pipes"][r][1].send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for p in pool["procs"]:
            p.join(timeout=self.join_timeout)
            if p.is_alive():  # pragma: no cover - hard hang
                p.terminate()
                p.join(timeout=5.0)
        for r in range(pool["nranks"]):
            for conn in (pool["cmd_pipes"][r] + pool["rec_pipes"][r]):
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        for ring in pool["rings"]:
            ring.drain_spills()
            ring.sweep_spills()
            ring.destroy()


def _sockets_factory() -> Backend:
    # Deferred import: repro.net imports this module, so the registry
    # entry must not import it back at module load.
    from ..net.backend import SocketBackend

    return SocketBackend()


#: Registration table: name -> zero-argument factory.  Table-driven so
#: new backends (and tests) slot in via :func:`register_backend`
#: without touching resolution logic.
_BACKENDS: Dict[str, Callable[[], Backend]] = {
    ThreadsBackend.name: ThreadsBackend,
    ProcsBackend.name: ProcsBackend,
    "sockets": _sockets_factory,
}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register (or replace) a backend under ``name``.

    ``factory`` takes no arguments and returns a :class:`Backend`;
    registration makes the name valid for ``Runtime(backend=...)`` and
    every ``--backend`` CLI flag.
    """
    _BACKENDS[name] = factory


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
