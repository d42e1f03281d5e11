"""Execution of one :class:`~repro.service.jobs.JobSpec` in a worker.

This is the code a persistent pool worker runs for each job it is
handed.  Jobs execute on the *threads* backend internally — the
service's parallelism is across workers (one forked process each), so
inside a worker the cheap backend is the right one, and it lets every
rank of a job share the worker's in-memory
:class:`~repro.service.artifacts.ArtifactCache` directly.

The artifact-cache hit/miss decision is made **here, once per job**
(never per rank): a complete entry found before launch is handed to
all ranks; otherwise all ranks run cold setup and store their shares.
That single decision point is what keeps ranks collectively consistent
(see :mod:`repro.service.artifacts`).  Jobs with fault injection
(``params["fault_spec"]``) would perturb message sequence numbers, so
they bypass the cache entirely — no lookup, no store.

``run_job`` is deliberately synchronous and exception-tight: whatever
goes wrong becomes a ``failed`` :class:`JobResult`, never a worker
crash.  Only ``Exception`` is caught — ``KeyboardInterrupt`` /
``SystemExit`` must propagate so a worker told to die actually dies
(the pool's timeout-kill path depends on that).

The job kinds' code, and the ``numpy.random`` that a cmtbone job's
fields and auto-tune draw from, are imported with this module, which
:mod:`repro.service.pool` imports: the pool's workers are forked with
it loaded and import nothing per job, and a spool client that imports
only :mod:`repro.service.jobs` loads none of it.

Both kinds accept ``params["sleep_s"]`` (a synthetic wall-clock stall
before the run — the hook the timeout tests and the ``service`` bench
scenarios use to simulate a hung job).
``params["exit_if_flag"]`` names a flag file: if it exists when the
job starts, it is deleted and the worker process dies on the spot —
a deterministic crash-on-first-attempt hook for the worker-death and
retry tests (the retry finds the flag consumed and runs clean).
"""

from __future__ import annotations

import time
import traceback
from typing import Optional

import numpy.random  # noqa: F401

from ..core.cmtbone import CMTBone
from ..core.config import CMTBoneConfig
from ..mpi import Runtime
from ..perfmodel.machine import MachineModel
from ..solver import run_with_recovery, sod_problem
from .artifacts import ArtifactCache, SetupArtifact, artifact_key
from .jobs import (
    STATUS_DONE,
    STATUS_FAILED,
    JobResult,
    JobSpec,
    digest_arrays,
)


def _fault_plan(spec: JobSpec):
    """FaultPlan from ``params["fault_spec"]``, or None (fault-free)."""
    fault_spec = spec.param("fault_spec")
    if not fault_spec:
        return None
    from ..faults import FaultPlan

    return FaultPlan.parse(
        str(fault_spec), seed=int(spec.param("fault_seed", 0))
    )


def _cmtbone_main(comm, config, entry, cache, key, nranks):
    """SPMD main for a cmtbone job (threads backend, shared ``cache``)."""
    sink = None
    if cache is not None and entry is None:
        def sink(bone, bone_comm, _cache=cache, _key=key, _n=nranks):
            _cache.store(
                _key, bone_comm.rank,
                SetupArtifact.capture(bone, bone_comm), _n,
            )

    art = entry.artifact_for(comm.rank) if entry is not None else None
    bone = CMTBone(comm, config, setup_artifact=art, setup_sink=sink)
    return bone.run()


def _cmtbone_config(spec: JobSpec):
    p = spec.params
    return CMTBoneConfig(
        n=int(p.get("n", 5)),
        local_shape=p.get("nel", 8),
        nsteps=int(p.get("nsteps", 4)),
        kernel_variant=str(p.get("kernel_variant", "fused")),
        gs_method=p.get("gs_method"),
        work_mode=str(p.get("work_mode", "real")),
        monitor_every=int(p.get("monitor_every", 1)),
        seed=int(p.get("seed", 2015)),
    )


def spec_artifact_key(spec: JobSpec) -> Optional[str]:
    """Artifact-cache key a job will use (None for uncacheable kinds).

    The pool's affinity router uses this to steer jobs toward workers
    that already hold the matching setup artifact.  Fault-injected
    jobs bypass the cache, so they have no key.

    Never raises: this runs in the *service's* drive loop (affinity
    routing), where an invalid spec must dispatch and fail cleanly in
    its worker — not take the whole service down.  An unbuildable
    config simply has no cache identity.
    """
    if spec.kind != "cmtbone" or spec.param("fault_spec"):
        return None
    try:
        config = _cmtbone_config(spec)
        partition = config.build_partition(spec.nranks)
    except Exception:
        return None
    return artifact_key(
        partition.mesh.shape, config.n, partition.proc_shape,
        config.gs_method, config.kernel_variant,
    )


def _run_cmtbone(spec: JobSpec, cache: Optional[ArtifactCache],
                 result: JobResult) -> None:
    config = _cmtbone_config(spec)
    key = spec_artifact_key(spec)
    plan = _fault_plan(spec)
    if plan is not None:
        # Fault injection perturbs setup-time message sequencing: the
        # job must run cold and must not poison the cache.
        cache = None
    entry = None
    if cache is not None:
        before_disk = cache.stats.disk_hits
        entry = cache.lookup(key, spec.nranks)
        result.cache_hits = 1 if entry is not None else 0
        result.cache_misses = 0 if entry is not None else 1
        result.cache_disk_hits = cache.stats.disk_hits - before_disk
    rt = Runtime(
        nranks=spec.nranks,
        machine=MachineModel.preset(spec.machine),
        fault_plan=plan,
    )
    results = rt.run(
        _cmtbone_main,
        args=(config, entry, cache, key, spec.nranks),
    )
    stats = rt.clock_stats()
    result.vtime_total = max(s.total for s in stats)
    result.vtime_comm = max(s.comm for s in stats)
    result.digest = digest_arrays(
        repr((
            r.rank,
            r.chosen_method,
            tuple(r.monitor_values),
            r.vtime_total.hex(),
            r.vtime_comm.hex(),
            r.vtime_hidden_comm.hex(),
        )).encode("utf-8")
        for r in results
    )


def _run_sod(spec: JobSpec, result: JobResult) -> None:
    p = spec.params
    setup = sod_problem(
        spec.nranks,
        n=int(p.get("n", 5)),
        nelx=int(p.get("nelx", 8)),
        gs_method=str(p.get("gs_method", "pairwise")),
        kernel_variant=str(p.get("kernel_variant", "fused")),
    )
    states, report = run_with_recovery(
        setup,
        nranks=spec.nranks,
        nsteps=int(p.get("nsteps", 4)),
        dt=p.get("dt", 2e-4),
        checkpoint_every=int(p.get("checkpoint_every", 0)),
        checkpoint_dir=p.get("checkpoint_dir"),
        fault_plan=_fault_plan(spec),
        machine=MachineModel.preset(spec.machine),
        job_id=spec.job_id,
    )
    result.vtime_total = report.total_virtual_seconds
    result.digest = digest_arrays(
        st.u.tobytes() for st in states
    )


def run_job(spec: JobSpec, cache: Optional[ArtifactCache] = None
            ) -> JobResult:
    """Execute one job to a terminal :class:`JobResult` (never raises)."""
    import os

    result = JobResult(
        job_id=spec.job_id,
        kind=spec.kind,
        name=spec.name,
        worker_pid=os.getpid(),
    )
    t0 = time.perf_counter()
    flag = spec.param("exit_if_flag")
    if flag and os.path.exists(str(flag)):
        # Crash hook (see module docstring): consume the flag so a
        # retried attempt runs clean, then die without cleanup — the
        # parent must see a hard worker death, not an exception.
        os.unlink(str(flag))
        os._exit(17)
    try:
        delay = float(spec.param("sleep_s", 0.0) or 0.0)
        if delay > 0:
            time.sleep(delay)
        if spec.kind == "cmtbone":
            _run_cmtbone(spec, cache, result)
        elif spec.kind == "sod":
            _run_sod(spec, result)
        else:  # pragma: no cover - JobSpec validates kinds
            raise ValueError(f"unknown job kind {spec.kind!r}")
        result.status = STATUS_DONE
    except Exception as exc:
        # Exception, not BaseException: KeyboardInterrupt/SystemExit
        # must kill the worker, not masquerade as a failed job — the
        # pool's timeout-kill path depends on workers dying cleanly.
        result.status = STATUS_FAILED
        result.error = (
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )
    result.exec_seconds = time.perf_counter() - t0
    return result
