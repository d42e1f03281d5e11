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

One thread drives the pool: :meth:`WorkerPool.dispatch` hands a batch
to an idle worker and :meth:`WorkerPool.wait` makes one
``multiprocessing.connection.wait`` over the busy workers' result
pipes, bounded by its ``timeout`` and by the earliest running job's
deadline, and returns the batches that resolved.  A worker that dies
mid-batch (hard crash) shows as pipe EOF; its unfinished jobs are
failed and a fresh worker is forked into its slot before ``wait``
returns, so one poisoned job cannot take the service down.  A worker
holds only its own ends of its two pipes (it closes the parent-side
ends it inherited), so a worker whose parent died reads EOF on its
command pipe and exits.

Deadline monitor: the worker runs its batch serially and sends one
result per job in batch order, so the parent always knows which job is
*currently* running (the one at index ``len(results)``) and when it
started (the dispatch, or the previous result's arrival).  When that
job overruns its own ``timeout_seconds``, ``wait`` first drains results
that already arrived; if none did, it kills the worker, reports the
overrunning job ``timed_out`` and the rest of the batch
``worker_died`` (collateral — they never ran), and respawns the slot.
The service decides whether those jobs are re-admitted
(``max_retries``).  A job's measured start is its result-pipe
predecessor, so pipe latency only ever *adds* budget — a timeout is
never charged against time the job didn't get.

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
job's thread ranks inherit it, so their GIL hand-offs stay on one core
instead of waking a thread on another CPU.  Without
``os.sched_setaffinity`` every worker floats.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Set

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


def _worker_loop(cmd_conn, res_conn, inherited, artifact_dir=None,
                 cpus=None) -> None:
    """Worker child main: serve ("run", batch) commands until stopped.

    ``inherited`` are the pool's parent-side pipe ends the fork copied
    in; closing them leaves the parent the only writer of the command
    pipe, so the worker reads EOF (and exits) once the parent is gone.
    """
    for conn in inherited:
        conn.close()
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
    jobs_served: int = 0
    batches_served: int = 0
    #: Artifact keys this worker's cache held after its last batch.
    cached_keys: Set[str] = field(default_factory=set)
    #: The in-flight batch (empty when idle) and its results so far.
    specs: List[JobSpec] = field(default_factory=list)
    results: List[JobResult] = field(default_factory=list)
    #: Monotonic wall time the batch's current job started: the
    #: dispatch, or the arrival of the previous job's result.
    started: float = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid or 0

    @property
    def busy(self) -> bool:
        return bool(self.specs)

    def deadline(self) -> Optional[float]:
        """When the current job overruns (None: no budget, or every
        job of the batch has reported)."""
        current = len(self.results)
        if (current < len(self.specs)
                and self.specs[current].timeout_seconds > 0):
            return self.started + self.specs[current].timeout_seconds
        return None


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
        self._workers: List[_Worker] = []
        for i in range(nworkers):
            self._workers.append(self._spawn(i))
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
        inherited = [cmd_w, res_r]
        for w in self._workers:
            inherited += [w.cmd_w, w.res_r]
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(cmd_r, res_w, inherited, self.artifact_dir,
                  self._shares[index]),
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
        w.specs, w.results = list(specs), []
        w.started = time.monotonic()
        try:
            w.cmd_w.send(("run", [s.to_json() for s in specs]))
        except OSError:
            pass  # a dead worker: wait() reads its EOF and fails the batch

    def wait(self, timeout: Optional[float] = None
             ) -> Dict[int, List[JobResult]]:
        """Wait for busy workers; return ``{index: results}`` of the
        batches that resolved, each in batch order.

        Returns once at least one batch resolved or ``timeout`` seconds
        passed (``None``: until a batch resolves; at once when no
        worker is busy).  A worker death yields ``worker_died`` failed
        results for the unfinished jobs; a job that overruns its own
        ``timeout_seconds`` gets its worker killed, a ``timed_out``
        failed result, and the rest of the batch fails ``worker_died``
        (collateral — those jobs never started).  Either way a
        replacement worker is in the slot before ``wait`` returns, the
        batch is credited to the worker that served it (not the
        replacement), and the dead worker's cached-key advertisement
        dies with it.
        """
        end = None if timeout is None else time.monotonic() + timeout
        done: Dict[int, List[JobResult]] = {}
        while not done:
            busy = {w.res_r: i for i, w in enumerate(self._workers)
                    if w.busy}
            if not busy and end is None:
                break
            bounds = [d for d in (self._workers[i].deadline()
                                  for i in busy.values()) if d is not None]
            if end is not None:
                bounds.append(end)
            wait_s = (max(0.0, min(bounds) - time.monotonic())
                      if bounds else None)
            for conn in connection.wait(list(busy), wait_s):
                index = busy[conn]
                outcome = self._drain(self._workers[index])
                if outcome is not None:
                    done[index] = self._resolve(index, outcome)
            now = time.monotonic()
            for index in busy.values():
                w = self._workers[index]
                deadline = w.deadline()
                if index in done or deadline is None or deadline > now:
                    continue
                # Anything already on the wire still counts: the job
                # may have finished at the deadline's edge.
                seen = len(w.results)
                outcome = self._drain(w)
                if outcome is None and len(w.results) == seen:
                    outcome = "timed_out"
                if outcome is not None:
                    done[index] = self._resolve(index, outcome)
            if end is not None and now >= end:
                break
        return done

    @staticmethod
    def _drain(w: _Worker) -> Optional[str]:
        """Consume every message already on ``w``'s result pipe.

        Returns ``"done"`` when the batch's closing message arrived,
        ``"died"`` on pipe EOF, None while the batch is still running.
        """
        try:
            while w.res_r.poll(0):
                msg = w.res_r.recv()
                if msg[0] == "done":
                    w.cached_keys = set(msg[2])
                    return "done"
                w.results.append(JobResult.from_json(msg[1]))
                w.started = time.monotonic()
        except EOFError:
            return "died"
        return None

    def _resolve(self, index: int, outcome: str) -> List[JobResult]:
        """End worker ``index``'s batch: fail what never reported,
        credit the worker, and respawn the slot unless it finished."""
        w = self._workers[index]
        specs, results = w.specs, w.results
        w.specs, w.results = [], []
        timed_out = outcome == "timed_out"
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
        if outcome != "done":
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
