"""Job descriptions and results for the mini-app job service.

A :class:`JobSpec` is one runnable mini-app configuration — a CMT-bone
proxy run or a Sod solver campaign — plus the queueing metadata the
scheduler needs (priority, submitter, estimated size).  Specs are
plain data and JSON round-trippable so they can travel over the
spool-directory protocol (``repro.cli submit`` / ``serve``) and over
the worker pool's pipes.

A :class:`JobResult` is what comes back: terminal status, latency
accounting, the job's deterministic virtual-time totals, artifact-
cache accounting, and a content digest of the physics output so
service runs can be checked bitwise against standalone CLI runs.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional

#: Job kinds the execution layer understands.
KINDS = ("cmtbone", "sod")

#: Terminal statuses of a job.
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"

#: Jobs at or below this many work units (see :meth:`JobSpec.work_units`)
#: count as "small" and are eligible for batched admission: several of
#: them ride one worker dispatch, amortising the per-dispatch IPC.
SMALL_JOB_UNITS = 4_000_000


def new_job_id() -> str:
    return secrets.token_hex(8)


@dataclass(frozen=True)
class JobSpec:
    """One queued unit of work.

    ``params`` carries the kind-specific knobs (see
    :mod:`repro.service.execute` for what each kind reads); everything
    else is queueing metadata.  Higher ``priority`` runs first; ties
    break by submission order.
    """

    kind: str
    job_id: str = field(default_factory=new_job_id)
    name: str = ""
    submitter: str = "anon"
    #: Higher runs first (0 = normal).
    priority: int = 0
    nranks: int = 2
    #: Machine-model preset for the virtual clock.
    machine: str = "compton"
    #: Wall-second execution budget for one attempt (0 = unlimited).
    #: The pool's deadline monitor kills the worker of an overrunning
    #: batch; see docs/service.md, "Timeouts and retries".
    timeout_seconds: float = 0.0
    #: Automatic re-admissions allowed after a timeout or worker death
    #: (clean in-job failures are never retried).
    max_retries: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"job kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if self.timeout_seconds < 0:
            raise ValueError(
                f"timeout_seconds must be >= 0, got {self.timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if "backend" in self.params:
            raise ValueError(
                "params['backend'] is not accepted: service jobs run on "
                "thread ranks, which share the worker's artifact cache"
            )

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def work_units(self) -> int:
        """Rough size estimate: grid points times steps.

        Drives the small-job classification for batched admission; it
        only needs to be monotone in actual cost, not accurate.
        """
        n = int(self.param("n", 5))
        nel = int(self.param("nel", self.param("nelx", 8)))
        nsteps = int(self.param("nsteps", 4))
        return self.nranks * nel * n**3 * max(nsteps, 1)

    def is_small(self) -> bool:
        return self.work_units() <= SMALL_JOB_UNITS

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "JobSpec":
        return cls(
            kind=str(doc["kind"]),
            job_id=str(doc.get("job_id") or new_job_id()),
            name=str(doc.get("name", "")),
            submitter=str(doc.get("submitter", "anon")),
            priority=int(doc.get("priority", 0)),
            nranks=int(doc.get("nranks", 2)),
            machine=str(doc.get("machine", "compton")),
            timeout_seconds=float(doc.get("timeout_seconds", 0.0)),
            max_retries=int(doc.get("max_retries", 0)),
            params=dict(doc.get("params", {})),
        )


@dataclass
class JobResult:
    """Terminal record of one job."""

    job_id: str
    kind: str
    name: str = ""
    status: str = STATUS_DONE
    #: PID of the pool worker that ran the job (0 for cancelled jobs
    #: that never ran).
    worker_pid: int = 0
    #: Wall seconds the job spent executing inside the worker.
    exec_seconds: float = 0.0
    #: Wall seconds from submission to completion (set by the service;
    #: includes queue wait).  The campaign's p50/p99 gate on this.
    latency_seconds: float = 0.0
    #: Max-over-ranks virtual time of the job (deterministic).
    vtime_total: float = 0.0
    vtime_comm: float = 0.0
    #: Setup-artifact cache accounting for this job.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Subset of ``cache_hits`` served from the disk spill rather than
    #: the worker's memory (restart warm hits).
    cache_disk_hits: int = 0
    #: Re-admissions this job consumed before reaching this terminal
    #: result (set by the service's retry loop).
    retries: int = 0
    #: The attempt producing this result overran its per-job
    #: ``timeout_seconds`` and its worker was killed.
    timed_out: bool = False
    #: The attempt's worker died mid-batch (hard crash or kill).
    worker_died: bool = False
    #: The job was collateral: its worker died (or was timeout-killed)
    #: before the job's turn in the batch came up.  The service
    #: re-admits such jobs without charging their retry budget — a job
    #: that never ran has not consumed an attempt.
    never_started: bool = False
    #: Content digest of the physics output (bitwise-comparable with a
    #: standalone run of the same spec).
    digest: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_DONE

    @property
    def retryable(self) -> bool:
        """Did this attempt fail for a reason re-admission can fix?

        Timeouts and worker deaths are environmental; a clean in-job
        exception is deterministic and would just fail again.
        """
        return self.timed_out or self.worker_died

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "JobResult":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in dict(doc).items() if k in known})


def digest_arrays(parts) -> str:
    """blake2b over an iterable of bytes-like chunks (stable digest)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()
