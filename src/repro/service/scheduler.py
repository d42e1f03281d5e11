"""Priority job queue with quotas, cancellation, batched admission.

The queue is the policy half of the service (:mod:`repro.service.pool`
is the mechanism half).  One thread owns it: the service's
:meth:`~repro.service.service.Service.step` calls :meth:`next_batch`
for every idle worker, and a job's terminal
:class:`~repro.service.jobs.JobResult` waits in the queue's outbox
until :meth:`pop_finished` hands it out.

Policies implemented here:

* **Priority** — higher ``JobSpec.priority`` dispatches first; ties
  break in submission order (a stable monotone counter, so equal-
  priority jobs are FIFO).
* **Per-submitter quota** — at most ``quota`` jobs per submitter may
  be running at once; a submitter's excess jobs stay queued even while
  workers idle, so one noisy user cannot monopolise the pool.
* **Cancellation** — a queued job can be cancelled (a ``cancelled``
  result goes to the outbox at once); a job already handed to a worker
  cannot be preempted and reports ``False``.
* **Batched admission** — *small* jobs (``JobSpec.is_small()``) are
  admitted in groups of up to ``batch_max`` per dispatch, amortising
  the per-dispatch pipe round-trip; a large job always travels alone.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from .jobs import STATUS_CANCELLED, JobResult, JobSpec

#: Default cap on small jobs admitted per worker dispatch.
DEFAULT_BATCH_MAX = 4


@dataclass
class _QueuedJob:
    spec: JobSpec
    #: Wall time (perf_counter) at submission, for latency accounting.
    submitted_at: float = 0.0
    dispatched: bool = False
    cancelled: bool = False
    #: Re-admissions consumed so far (timeout/worker-death retries).
    retries: int = 0


@dataclass
class QueueStats:
    submitted: int = 0
    dispatched: int = 0
    cancelled: int = 0
    #: Dispatches that carried more than one job.
    batched_dispatches: int = 0
    #: Times the quota held an otherwise-runnable job back.
    quota_deferrals: int = 0
    #: Jobs re-admitted after a timeout or worker death.
    readmitted: int = 0
    #: Attempts that overran their ``timeout_seconds`` (every attempt
    #: counts, including the final one that exhausts the retries).
    timeouts: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


class JobQueue:
    """See module docstring.  Not thread-safe: one thread only."""

    def __init__(
        self,
        quota: Optional[int] = None,
        batch_max: int = DEFAULT_BATCH_MAX,
    ) -> None:
        if quota is not None and quota < 1:
            raise ValueError(f"quota must be >= 1, got {quota}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.quota = quota
        self.batch_max = batch_max
        #: (-priority, seq) heap of queued job ids.
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._jobs: Dict[str, _QueuedJob] = {}
        #: Currently-running job count per submitter (quota bookkeeping;
        #: the service calls :meth:`job_finished` to decrement).
        self._running: Dict[str, int] = {}
        #: Terminal results not yet handed out by :meth:`pop_finished`.
        self._finished: List[JobResult] = []
        self.stats = QueueStats()

    # -- submission / cancellation ------------------------------------

    def submit(self, spec: JobSpec, submitted_at: float = 0.0) -> None:
        """Queue a job; its result reaches :meth:`pop_finished`."""
        if spec.job_id in self._jobs:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        self._jobs[spec.job_id] = _QueuedJob(
            spec=spec, submitted_at=submitted_at,
        )
        heapq.heappush(self._heap, (-spec.priority, next(self._seq),
                                    spec.job_id))
        self.stats.submitted += 1

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job.  Running/finished jobs return False."""
        entry = self._jobs.get(job_id)
        if entry is None or entry.dispatched or entry.cancelled:
            return False
        entry.cancelled = True
        self.stats.cancelled += 1
        del self._jobs[job_id]  # its heap entry is now stale and skipped
        self._finished.append(JobResult(
            job_id=job_id,
            kind=entry.spec.kind,
            name=entry.spec.name,
            status=STATUS_CANCELLED,
        ))
        return True

    # -- admission ----------------------------------------------------

    def _under_quota(self, submitter: str) -> bool:
        if self.quota is None:
            return True
        return self._running.get(submitter, 0) < self.quota

    def next_batch(self) -> List[_QueuedJob]:
        """Pop the next dispatchable batch (possibly empty).

        Takes the highest-priority eligible job; if it is *small*,
        greedily extends the batch with further eligible small jobs (in
        priority order) up to ``batch_max``.  Each admitted job counts
        against its submitter's quota immediately.
        """
        batch: List[_QueuedJob] = []
        skipped: List[tuple] = []
        deferred = False
        while self._heap and len(batch) < self.batch_max:
            item = heapq.heappop(self._heap)
            entry = self._jobs.get(item[2])
            if entry is None or entry.cancelled or entry.dispatched:
                continue  # stale heap entry
            if not self._under_quota(entry.spec.submitter):
                skipped.append(item)
                deferred = True
                continue
            if batch and not entry.spec.is_small():
                # Large jobs travel alone; keep for the next dispatch.
                skipped.append(item)
                break
            batch.append(entry)
            entry.dispatched = True
            self._running[entry.spec.submitter] = (
                self._running.get(entry.spec.submitter, 0) + 1
            )
            self.stats.dispatched += 1
            if not entry.spec.is_small():
                break  # a large job never gets companions
        for item in skipped:
            heapq.heappush(self._heap, item)
        if deferred:
            self.stats.quota_deferrals += 1
        if len(batch) > 1:
            self.stats.batched_dispatches += 1
        return batch

    # -- re-admission -------------------------------------------------

    def readmit(self, entry: _QueuedJob, charge: bool = True) -> None:
        """Put a dispatched-but-unfinished job back in the queue.

        Used by the service when an attempt timed out or its worker
        died.  The job keeps its id and priority but goes to
        the back of its priority class (a fresh sequence number) and
        releases its quota slot until it dispatches again.  With
        ``charge=False`` (a collateral job that never started) the
        job's retry budget is left untouched.
        """
        if entry.spec.job_id not in self._jobs or not entry.dispatched:
            raise ValueError(
                f"job {entry.spec.job_id!r} is not dispatched; "
                "only in-flight jobs can be re-admitted"
            )
        submitter = entry.spec.submitter
        if self._running.get(submitter):
            self._running[submitter] -= 1
            if not self._running[submitter]:
                del self._running[submitter]
        entry.dispatched = False
        if charge:
            entry.retries += 1
        self.stats.readmitted += 1
        heapq.heappush(self._heap, (-entry.spec.priority,
                                    next(self._seq), entry.spec.job_id))

    # -- completion ---------------------------------------------------

    def job_finished(self, job_id: str, result: JobResult) -> None:
        """Put a dispatched job's result in the outbox; release its
        quota slot."""
        entry = self._jobs.pop(job_id, None)
        if entry is None:
            return
        submitter = entry.spec.submitter
        if entry.dispatched and self._running.get(submitter):
            self._running[submitter] -= 1
            if not self._running[submitter]:
                del self._running[submitter]
        self._finished.append(result)

    def pop_finished(self) -> List[JobResult]:
        """Hand out (and forget) the terminal results gathered so far."""
        finished, self._finished = self._finished, []
        return finished

    # -- introspection ------------------------------------------------

    def pending_count(self) -> int:
        """Jobs queued but not yet dispatched or cancelled."""
        return sum(
            1 for e in self._jobs.values()
            if not e.dispatched and not e.cancelled
        )

    def running_count(self) -> int:
        return sum(self._running.values())
