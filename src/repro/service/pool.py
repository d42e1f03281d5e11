"""Persistent pool of forked job workers.

The pool is the mechanism half of the service (the
:class:`~repro.service.scheduler.JobQueue` is the policy half).  Each
worker is forked **once** and then serves job batches for its whole
life over a pair of pipes, which amortises the fork/import/numpy-setup
cost that a process-per-job design pays every time — and, more
importantly, keeps the worker's in-memory
:class:`~repro.service.artifacts.ArtifactCache` alive across jobs so
repeated configurations skip their setup entirely.

Protocol (all JSON-safe dicts over ``multiprocessing`` fork-context
pipes):

* parent → worker: ``("run", [spec_doc, ...])`` — a batch of one or
  more job specs; or ``("stop",)``.
* worker → parent: ``("result", result_doc)`` per job, then
  ``("done", cache_stats, cached_keys)`` closing the batch.

A worker that dies mid-batch (hard crash) is detected by pipe EOF +
liveness; its in-flight jobs are failed and a fresh worker is forked
in its slot, so one poisoned job cannot take the service down.

Deadline monitor: the worker runs its batch serially and sends one
result per job in batch order, so the parent always knows which job is
*currently* running (the one at index ``len(results)``) and when it
started (the dispatch, or the previous result's arrival).
:meth:`WorkerPool.collect` polls the result pipe against that job's
own ``timeout_seconds``; on overrun it drains results that already
arrived, kills the worker, reports the overrunning job ``timed_out``
and the rest of the batch ``worker_died`` (collateral — they never
ran), and respawns the slot.  The queue/service layer decides whether
those jobs are re-admitted (``max_retries``).  A job's measured start
is its result-pipe predecessor, so pipe latency only ever *adds*
budget — a timeout is never charged against time the job didn't get.

Accounting is per serving worker: a batch is always credited to the
worker that actually ran (or died running) it, never to the fresh
replacement — otherwise the least-loaded affinity pick would treat
the cold respawn as the pool's most seasoned worker.  Tallies of
retired (dead) workers accumulate on the pool so pool-wide totals
survive respawns.

Affinity: the parent tracks which artifact keys each worker holds and
:meth:`WorkerPool.pick_worker` prefers an idle worker that already
caches the batch's key — without it, a round-robin pool spreads
identical configs across workers and every one pays the cold setup.

CPU shares: the pool reads its CPU mask once, at construction, and
gives each worker slot a share of it (:func:`_cpu_shares`): a
contiguous, disjoint block while there are no more workers than CPUs,
else one CPU round-robin.  The worker restricts itself to its share
before it serves anything, and a respawn lands in the same share.  A
job's thread ranks (and any rank processes it forks) inherit it, so
their GIL hand-offs stay on one core instead of waking a thread on
another CPU.  Without ``os.sched_setaffinity`` every worker floats.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..mpi.backend import fork_context, stop_process
from .artifacts import ArtifactCache
from .execute import run_job, spec_artifact_key
from .jobs import STATUS_FAILED, JobResult, JobSpec


def _cpu_shares(nworkers: int) -> List[Optional[Set[int]]]:
    """Each worker slot's CPU set, split from this process's mask.

    All ``None`` where the platform cannot set affinity.
    """
    if not hasattr(os, "sched_setaffinity"):
        return [None] * nworkers
    mask = sorted(os.sched_getaffinity(0))
    n = len(mask)
    if nworkers > n:
        return [{mask[i % n]} for i in range(nworkers)]
    return [set(mask[i * n // nworkers:(i + 1) * n // nworkers])
            for i in range(nworkers)]


def _worker_loop(cmd_conn, res_conn, artifact_dir=None, cpus=None) -> None:
    """Worker child main: serve ("run", batch) commands until stopped."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    cache = ArtifactCache(disk=artifact_dir)
    while True:
        try:
            msg = cmd_conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            return
        if msg[0] != "run":  # pragma: no cover - protocol guard
            continue
        for doc in msg[1]:
            result = run_job(JobSpec.from_json(doc), cache)
            res_conn.send(("result", result.to_json()))
        res_conn.send(("done", cache.stats.snapshot(), cache.keys()))


@dataclass
class _Worker:
    proc: object    # the forked worker (a fork-context Process)
    cmd_w: object   # parent's write end of the command pipe
    res_r: object   # parent's read end of the result pipe
    busy: bool = False
    jobs_served: int = 0
    batches_served: int = 0
    #: Monotonic wall time the in-flight batch was dispatched (the
    #: rolling per-job deadline monitor measures from here).
    batch_started: Optional[float] = None
    #: Artifact keys this worker's cache held after its last batch.
    cached_keys: Set[str] = field(default_factory=set)

    @property
    def pid(self) -> int:
        return self.proc.pid or 0


class PoolError(RuntimeError):
    pass


class WorkerPool:
    """See module docstring."""

    def __init__(self, nworkers: int = 2,
                 artifact_dir: Optional[str] = None) -> None:
        if nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {nworkers}")
        self.nworkers = nworkers
        #: Disk-spill directory every worker's ArtifactCache shares
        #: (None = in-memory caches only).
        self.artifact_dir = artifact_dir
        self._ctx = fork_context("service")
        #: Each slot's CPU share (see the module docstring).
        self._shares = _cpu_shares(nworkers)
        self._workers: List[_Worker] = [
            self._spawn(i) for i in range(nworkers)
        ]
        self._closed = False
        #: Workers that died mid-batch and were replaced.
        self.respawns = 0
        #: Batches killed by the deadline monitor.
        self.timeout_kills = 0
        #: Tallies of retired (replaced) workers, so pool-wide totals
        #: survive respawns.
        self._retired_jobs_served = 0
        self._retired_batches_served = 0

    def _spawn(self, index: int) -> _Worker:
        cmd_r, cmd_w = self._ctx.Pipe(duplex=False)
        res_r, res_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(cmd_r, res_w, self.artifact_dir, self._shares[index]),
            name="repro-job-worker", daemon=True,
        )
        proc.start()
        # The child inherited its own copies; drop the parent's.
        cmd_r.close()
        res_w.close()
        return _Worker(proc=proc, cmd_w=cmd_w, res_r=res_r)

    # -- introspection -------------------------------------------------

    def worker_pids(self) -> List[int]:
        return [w.pid for w in self._workers]

    def idle_workers(self) -> List[int]:
        return [i for i, w in enumerate(self._workers) if not w.busy]

    def jobs_served(self) -> int:
        return (sum(w.jobs_served for w in self._workers)
                + self._retired_jobs_served)

    # -- scheduling hooks ----------------------------------------------

    def pick_worker(self, specs: List[JobSpec]) -> Optional[int]:
        """Choose an idle worker for a batch, preferring cache affinity.

        Returns a worker index, or None when every worker is busy.
        """
        idle = self.idle_workers()
        if not idle:
            return None
        keys = {k for k in (spec_artifact_key(s) for s in specs)
                if k is not None}
        if keys:
            for i in idle:
                if keys & self._workers[i].cached_keys:
                    return i
        # Least-loaded cold worker: spreads distinct configs out so
        # each warms a different part of the fleet.
        return min(idle, key=lambda i: self._workers[i].jobs_served)

    def dispatch(self, index: int, specs: List[JobSpec]) -> None:
        """Hand a batch to worker ``index`` (must be idle)."""
        if self._closed:
            raise PoolError("pool is closed")
        w = self._workers[index]
        if w.busy:
            raise PoolError(f"worker {index} is busy")
        w.busy = True
        w.batch_started = time.monotonic()
        w.cmd_w.send(("run", [s.to_json() for s in specs]))

    def _drain_ready(self, w: _Worker, results: List[JobResult]) -> bool:
        """Consume already-arrived messages without blocking.

        Returns True if the batch's closing "done" message was seen —
        the batch actually finished (possibly at the deadline's edge).
        """
        try:
            while w.res_r.poll(0):
                msg = w.res_r.recv()
                if msg[0] == "result":
                    results.append(JobResult.from_json(msg[1]))
                elif msg[0] == "done":
                    w.cached_keys = set(msg[2])
                    return True
        except EOFError:
            pass
        return False

    def collect(self, index: int, specs: List[JobSpec]
                ) -> List[JobResult]:
        """Blocking: receive the batch's results from worker ``index``.

        Call from an executor thread, never the event loop.  A worker
        death yields ``worker_died`` failed results for the unfinished
        jobs; a job that overruns its own ``timeout_seconds`` gets its
        worker killed, a ``timed_out`` failed result, and the rest of
        the batch fails ``worker_died`` (collateral — those jobs never
        started).  Either way a replacement worker lands in the slot,
        the batch is credited to the worker that served it (not the
        replacement), and the dead worker's cached-key advertisement
        dies with it.
        """
        w = self._workers[index]
        results: List[JobResult] = []
        finished = False    # saw the batch's closing "done" message
        timed_out = False   # deadline monitor killed the current job
        died = False        # pipe EOF: worker crashed on its own
        started = (w.batch_started if w.batch_started is not None
                   else time.monotonic())
        try:
            while True:
                # The worker serves the batch serially and reports in
                # order, so the job currently running is the one at
                # index len(results), started when its predecessor's
                # result arrived (or at dispatch).
                current = len(results)
                deadline = None
                if (current < len(specs)
                        and specs[current].timeout_seconds > 0):
                    deadline = started + specs[current].timeout_seconds
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        # Budget exhausted: anything already on the
                        # wire still counts (the job may have finished
                        # at the deadline's edge).
                        finished = self._drain_ready(w, results)
                        if finished:
                            break
                        if len(results) > current:
                            started = time.monotonic()
                            continue  # it did finish; next job's clock
                        timed_out = True
                        break
                    if not w.res_r.poll(remaining):
                        continue  # re-check the rolling deadline
                msg = w.res_r.recv()
                if msg[0] == "result":
                    results.append(JobResult.from_json(msg[1]))
                    started = time.monotonic()
                elif msg[0] == "done":
                    w.cached_keys = set(msg[2])
                    finished = True
                    break
        except EOFError:
            died = True
        w.batch_started = None
        if timed_out:
            self.timeout_kills += 1
            stop_process(w.proc, grace=0.0)
        # Unfinished jobs are exactly specs[len(results):] (serial,
        # in-order worker).  On a timeout the first of them is the
        # overrunner; the rest never started.
        running = len(results)  # the job in flight when things went bad
        for j in range(len(results), len(specs)):
            spec = specs[j]
            if timed_out and j == running:
                flags = dict(timed_out=True, worker_died=False)
                reason = (
                    f"job exceeded its {spec.timeout_seconds:.3g}s "
                    f"timeout; worker pid {w.pid} killed"
                )
            elif j == running:
                flags = dict(timed_out=False, worker_died=True)
                reason = f"worker pid {w.pid} died mid-batch"
            else:
                # Collateral: its turn never came.  never_started lets
                # the service re-admit it without charging a retry.
                flags = dict(timed_out=False, worker_died=True,
                             never_started=True)
                cause = "timed out" if timed_out else "died"
                reason = (
                    f"never started: worker pid {w.pid} gone after "
                    f"job {specs[running].job_id} {cause} earlier in "
                    "the batch"
                )
            results.append(JobResult(
                job_id=spec.job_id, kind=spec.kind,
                name=spec.name, status=STATUS_FAILED,
                worker_pid=w.pid,
                error=reason,
                **flags,
            ))
        # Credit the worker that served the batch — never the fresh
        # replacement, which must start cold for least-loaded routing.
        w.jobs_served += len(specs)
        w.batches_served += 1
        w.busy = False
        if died or timed_out:
            self._replace(index)
        return results

    def _replace(self, index: int) -> None:
        old = self._workers[index]
        self._retired_jobs_served += old.jobs_served
        self._retired_batches_served += old.batches_served
        self._close_worker(old, force=True)
        self._workers[index] = self._spawn(index)
        self.respawns += 1

    # -- shutdown ------------------------------------------------------

    @staticmethod
    def _close_worker(w: _Worker, force: bool = False) -> None:
        try:
            if not force and w.proc.is_alive():
                w.cmd_w.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        stop_process(w.proc, grace=5.0)
        for conn in (w.cmd_w, w.res_r):
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            self._close_worker(w)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
