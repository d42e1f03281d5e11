"""Job-service layer: queue, persistent worker pool, artifact cache.

Turns the mini-app from a one-shot CLI into a long-lived service that
amortises per-job fixed costs (fork/import, ``gs_setup``, auto-tune)
across a campaign of jobs.  See ``docs/service.md``.
"""

from .. import _lazy_exports

#: Public names by the submodule that defines them.  A submodule is
#: imported when one of its names is first read (PEP 562), so a spool
#: client that needs only :class:`JobSpec` (``repro.cli submit``) does
#: not import the worker pool or the job kinds' code it forks with.
_EXPORTS = {
    "artifacts": "ArtifactCache CacheEntry CacheStats DiskArtifactStore "
                 "SetupArtifact artifact_key",
    "execute": "run_job spec_artifact_key",
    "jobs": "KINDS SMALL_JOB_UNITS STATUS_CANCELLED STATUS_DONE "
            "STATUS_FAILED JobResult JobSpec digest_arrays new_job_id",
    "matrix": "MatrixCell MatrixReport MatrixSpec run_matrix",
    "pool": "PoolError WorkerPool",
    "scheduler": "DEFAULT_BATCH_MAX JobQueue QueueStats",
    "service": "CampaignReport Service run_campaign",
}
__all__, __getattr__ = _lazy_exports(__name__, _EXPORTS)
