"""The job service: one thread moving jobs from queue to worker pool.

:class:`Service` owns a :class:`~repro.service.scheduler.JobQueue` and
a :class:`~repro.service.pool.WorkerPool` and moves jobs between them.
Each :meth:`Service.step` hands a batch to every idle worker, waits
(bounded) for the pool to resolve batches, applies the retry policy to
what came back, and returns the results that became final.  Nothing
runs behind the caller's back: submissions, cancellations and steps
all happen on the caller's thread.

:func:`run_campaign` is the synchronous convenience wrapper: feed it a
list of specs, it brings a service up, drains the jobs, and returns a
:class:`CampaignReport` with throughput (jobs/sec) and latency
percentiles — the numbers the service benchmarks gate on.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional

from .jobs import JobResult, JobSpec
from .pool import WorkerPool
from .scheduler import DEFAULT_BATCH_MAX, JobQueue


class Service:
    """See module docstring.  Use as a context manager: leaving it
    closes the pool (call :meth:`drain` first to finish the jobs)."""

    def __init__(
        self,
        nworkers: int = 2,
        quota: Optional[int] = None,
        batch_max: int = DEFAULT_BATCH_MAX,
        artifact_dir: Optional[str] = None,
    ) -> None:
        self.queue = JobQueue(quota=quota, batch_max=batch_max)
        self.pool = WorkerPool(nworkers=nworkers,
                               artifact_dir=artifact_dir)
        #: Worker index -> the queue entries of its in-flight batch.
        self._batches: Dict[int, list] = {}

    # -- client API ----------------------------------------------------

    def submit(self, spec: JobSpec) -> None:
        """Queue a job; its result comes out of a later :meth:`step`."""
        self.queue.submit(spec, submitted_at=time.perf_counter())

    def cancel(self, job_id: str) -> bool:
        return self.queue.cancel(job_id)

    def step(self, timeout: Optional[float] = None) -> List[JobResult]:
        """Dispatch to every idle worker, wait up to ``timeout`` seconds
        for batches to resolve, and return the newly final results.

        ``None`` waits until a batch resolves (not at all when nothing
        is in flight).  Retry policy lives here: a result the pool
        marked ``timed_out`` or ``worker_died`` whose spec still has
        ``max_retries`` budget is re-admitted to the queue (same id and
        priority) instead of being finalised; everything else is final,
        with the retry count stamped on the result.
        """
        while self.pool.idle_workers():
            batch = self.queue.next_batch()
            if not batch:
                break
            specs = [e.spec for e in batch]
            index = self.pool.pick_worker(specs)
            self.pool.dispatch(index, specs)
            self._batches[index] = batch
        resolved = self.pool.wait(timeout)
        now = time.perf_counter()
        for index, results in resolved.items():
            for entry, result in zip(self._batches.pop(index), results):
                if result.timed_out:
                    self.queue.stats.timeouts += 1
                if result.never_started:
                    # Collateral of a batchmate's timeout/crash: the
                    # job never ran, so re-admission is free.
                    self.queue.readmit(entry, charge=False)
                    continue
                if (result.retryable
                        and entry.retries < entry.spec.max_retries):
                    self.queue.readmit(entry)
                    continue
                result.retries = entry.retries
                if entry.submitted_at:
                    result.latency_seconds = now - entry.submitted_at
                self.queue.job_finished(entry.spec.job_id, result)
        return self.queue.pop_finished()

    def drain(self) -> List[JobResult]:
        """Step until every job submitted so far is final; return the
        results that became final meanwhile."""
        final = self.step()
        while self.queue.pending_count() or self.queue.running_count():
            final += self.step()
        return final

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.pool.close()


class CampaignReport(NamedTuple):
    """Summary of one campaign run through the service."""

    results: List[JobResult]
    wall_seconds: float
    nworkers: int
    queue_stats: Dict[str, int]
    worker_pids: List[int]

    @property
    def jobs_per_second(self) -> float:
        return len(self.results) / self.wall_seconds if (
            self.wall_seconds > 0) else 0.0

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.results)

    @property
    def cache_disk_hits(self) -> int:
        return sum(r.cache_disk_hits for r in self.results)

    @property
    def retries(self) -> int:
        """Total re-admissions consumed across the campaign."""
        return sum(r.retries for r in self.results)

    @property
    def timed_out(self) -> List[JobResult]:
        return [r for r in self.results if r.timed_out]

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over completed jobs (nearest-rank)."""
        lats = sorted(r.latency_seconds for r in self.results)
        if not lats:
            return 0.0
        rank = min(len(lats) - 1, max(0, int(q / 100.0 * len(lats))))
        return lats[rank]

    @property
    def p50(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if r.status == "failed"]

    def summary(self) -> str:
        lines = [
            f"campaign: {len(self.results)} jobs on {self.nworkers} "
            f"workers in {self.wall_seconds:.3f} s "
            f"({self.jobs_per_second:.2f} jobs/s)",
            f"latency: p50 {self.p50 * 1e3:.1f} ms, "
            f"p99 {self.p99 * 1e3:.1f} ms",
            f"setup-artifact cache: {self.cache_hits} hits "
            f"({self.cache_disk_hits} from disk), "
            f"{self.cache_misses} misses",
        ]
        if self.retries or self.timed_out:
            lines.append(
                f"retries: {self.retries} re-admissions, "
                f"{len(self.timed_out)} jobs ended timed-out"
            )
        qs = self.queue_stats
        if qs:
            lines.append(
                f"queue: {qs.get('dispatched', 0)} dispatched, "
                f"{qs.get('batched_dispatches', 0)} batched, "
                f"{qs.get('cancelled', 0)} cancelled, "
                f"{qs.get('quota_deferrals', 0)} quota deferrals"
            )
        if self.failed:
            lines.append(f"FAILED: {len(self.failed)} jobs")
        return "\n".join(lines)


def run_campaign(
    specs: List[JobSpec],
    nworkers: int = 2,
    quota: Optional[int] = None,
    batch_max: int = DEFAULT_BATCH_MAX,
    artifact_dir: Optional[str] = None,
) -> CampaignReport:
    """Run a list of jobs through a fresh service; return the report.

    Results come back in submission order regardless of completion
    order, so reports are stable to compare across runs.
    """
    t0 = time.perf_counter()
    with Service(
        nworkers=nworkers, quota=quota, batch_max=batch_max,
        artifact_dir=artifact_dir,
    ) as svc:
        for spec in specs:
            svc.submit(spec)
        by_id = {r.job_id: r for r in svc.drain()}
        pids = svc.pool.worker_pids()
        stats = svc.queue.stats.snapshot()
    return CampaignReport(
        results=[by_id[spec.job_id] for spec in specs],
        wall_seconds=time.perf_counter() - t0,
        nworkers=nworkers,
        queue_stats=stats,
        worker_pids=pids,
    )
