"""Per-layer measurements: calls into each layer's public functions.

Run as a child of the traced run (``python layers.py <group> <dir>
<seed>``), pinned like every other child.  Each group prints, as its
last stdout line, one JSON object ``{"metrics": {name: [value, unit]},
"checks": {what: bool}, "traces": {name: [span, ...]}}``.
Layers are the ``src/repro`` packages.  A timing is the best of
``REPS`` repetitions (counts are exact); where ranks are involved it is
the slowest rank's, because that is the one a step waits for.

Groups:

``replay``   the four SPMD replays (see replay.py) and what they yield
``layers``   kernels, kir, solver, gs, mpi, net, lb, faults, cli report
``service``  pool, job execution, artifact cache, a traced campaign
             (the only group that may use every CPU: two workers)
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import socket
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

import workloads as wl
from spans import Tracer

REPS = 5
TRIAD_CAP = 128 << 20
Metrics = Dict[str, Tuple[float, str]]

#: The traced run's own top-level spans (one per measured call group).
TRACER = Tracer(rank=0)


def best(fn: Callable[[], object], reps: int = REPS, inner: int = 1
         ) -> float:
    """Best-of-``reps`` seconds per call of ``fn`` (``inner`` calls each)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return min(times)


def spmd_best(nranks: int, main, args=(), backend="threads",
              reps: int = 3) -> Dict[str, float]:
    """Run ``main`` ``reps`` times; per key, slowest rank of the best run."""
    from repro.mpi import Runtime

    runs = [Runtime(nranks=nranks, backend=backend).run(main, args=args)
            for _ in range(reps)]
    keys = runs[0][0].keys()
    return {k: min(max(rank[k] for rank in run) for run in runs)
            for k in keys}


# -- kernels / kir -----------------------------------------------------


def _llc_bytes() -> int:
    """Largest cache of cpu0 as sysfs reports it (0 when unknown)."""
    best_size = 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for size_file in base.glob("index*/size"):
        text = size_file.read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        digits = text[:-1] if text[-1] in "KMG" else text
        best_size = max(best_size, int(digits) * mult)
    return best_size


def kernels_and_kir(tmp: Path) -> Metrics:
    from repro import kir
    from repro.kernels import (
        Workspace, derivative_matrix, flops, grad, grad_workspace, mem_bytes,
    )

    out: Metrics = {}
    rng = np.random.default_rng(2015)
    work = Workspace()

    def stage(u, dmat, variant):
        for c in range(u.shape[0]):
            grad(u[c], dmat, variant=variant,
                 out=grad_workspace(work, u[c]))

    n, nel, neq = 16, 64, 5
    u = rng.standard_normal((neq, nel, n, n, n))
    dmat = np.asarray(derivative_matrix(n))
    stage(u, dmat, "fused")
    with TRACER.span("grad N=16", "kernels"):
        t_big = best(lambda: stage(u, dmat, "fused"), inner=3)
    gflops = neq * flops(n, nel, 3) / t_big / 1e9
    out["kernels.grad_ms"] = (t_big * 1e3, "ms")
    out["kernels.grad_gflops"] = (gflops, "GF/s")
    stage(u, dmat, "generated")
    with TRACER.span("generated grad N=16", "kir"):
        out["kir.generated_grad_ms"] = (
            best(lambda: stage(u, dmat, "generated"), inner=3) * 1e3, "ms")
    with TRACER.span("lower grad N=16", "kir"):
        # Uncached schedule + lower + compile of the fused grad program.
        prog = kir.build_program("grad", n)
        out["kir.lower_ms"] = (
            best(lambda: kir.lower(kir.schedule(prog, "gemm"))) * 1e3, "ms")

    small = rng.standard_normal((neq, 8, 5, 5, 5))
    dsmall = np.asarray(derivative_matrix(5))
    stage(small, dsmall, "fused")
    with TRACER.span("grad N=5", "kernels"):
        out["kernels.grad_small_us"] = (
            best(lambda: stage(small, dsmall, "fused"), inner=200) * 1e6,
            "us")

    # Host roofline, measured in this same run.  Each triad array is
    # four times the last-level cache, but at most TRIAD_CAP: the 260 MiB
    # L3 this host reports is a whole socket's, and faulting in 3 GiB
    # would cost more than the rest of the traced run.  Both sizes are
    # printed with the metrics.
    llc = _llc_bytes()
    arr_bytes = min(max(4 * llc, 64 << 20), TRIAD_CAP)
    m = arr_bytes // 8
    a, b, c = np.empty(m), np.ones(m), np.ones(m)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    with TRACER.span("triad", "kernels"):
        # multiply reads c, writes a; add reads a and b, writes a.
        gbps = 5 * arr_bytes / best(triad, reps=3) / 1e9
    del a, b, c
    k = 768
    x, y = rng.standard_normal((k, k)), rng.standard_normal((k, k))
    with TRACER.span("dgemm", "kernels"):
        dgemm = 2.0 * k**3 / best(lambda: x @ y, reps=5) / 1e9
    intensity = flops(n, nel, 3) / mem_bytes(n, nel, 3)
    out["kernels.grad_flop_per_byte"] = (intensity, "flop/B")
    out["kernels.host_dgemm_gflops"] = (dgemm, "GF/s")
    out["kernels.host_triad_gbps"] = (gbps, "GB/s")
    out["kernels.grad_roofline_frac"] = (
        gflops / min(dgemm, gbps * intensity), "ratio")
    print(f"# roofline: last-level cache {llc / 2**20:.1f} MiB, triad "
          f"arrays 3 x {arr_bytes / 2**20:.0f} MiB, dgemm {k}x{k}",
          file=sys.stderr)
    return out


# -- solver ------------------------------------------------------------


def sod_setup(nranks: int, lb: bool = False):
    """The Sod campaign's ``setup(comm)`` factory, from public classes.

    The same problem the ``sod`` subcommand builds: 32 N=6 elements in
    a row, Dirichlet ends, shock filter, 0.4 compute imbalance.
    """
    from repro.lb import RebalancePolicy
    from repro.mesh import BoxMesh, Partition
    from repro.solver import (
        SOD_LEFT, SOD_RIGHT, BoundarySpec, CMTSolver, ShockFilter,
        SolverConfig, from_primitives,
    )

    n = 6
    mesh = BoxMesh(shape=(32, 1, 1), n=n, periodic=(False, True, True),
                   lengths=(1.0, 0.25, 0.25))
    part = Partition(mesh, proc_shape=(nranks, 1, 1))

    def dirichlet(s):
        e = s.p / 0.4 + 0.5 * s.rho * s.u**2
        return BoundarySpec("dirichlet",
                            state=(s.rho, s.rho * s.u, 0.0, 0.0, e))

    def setup(comm):
        solver = CMTSolver(comm, part, config=SolverConfig(
            gs_method="pairwise", cfl=0.3,
            shock_filter=ShockFilter(n=n, threshold=-6.0, ramp=2.0),
            boundaries={0: dirichlet(SOD_LEFT), 1: dirichlet(SOD_RIGHT)},
            compute_imbalance=0.4,
            lb=(RebalancePolicy(mode="auto", threshold=1.05)
                if lb else None),
        ))
        coords = np.stack(
            [mesh.element_nodes(ec)
             for ec in part.local_elements(comm.rank)], axis=1)
        blend = 0.5 * (1.0 + np.tanh((coords[0] - 0.5) / 0.02))
        rho = SOD_LEFT.rho + (SOD_RIGHT.rho - SOD_LEFT.rho) * blend
        p = SOD_LEFT.p + (SOD_RIGHT.p - SOD_LEFT.p) * blend
        return solver, from_primitives(rho, np.zeros((3,) + rho.shape), p)

    return setup, part


def _step_main(comm, setup):
    solver, state = setup(comm)
    state = solver.step(state, 2e-4)
    t = best(lambda: solver.step(state, 2e-4), inner=4)
    return {"step": t}


def _ckpt_main(comm, setup, part, directory):
    from repro.solver import load_checkpoint, save_checkpoint

    _solver, state = setup(comm)
    save = best(lambda: save_checkpoint(directory, comm, part, state,
                                        step=10, time=2e-3))
    load = best(lambda: load_checkpoint(directory, comm, part))
    return {"save": save, "load": load}


def solver(tmp: Path) -> Metrics:
    from repro.solver import full2face

    out: Metrics = {}
    rng = np.random.default_rng(2015)
    big = rng.standard_normal((5, 64, 16, 16, 16))
    small = rng.standard_normal((5, 8, 5, 5, 5))

    def faces(u):
        for c in range(u.shape[0]):
            full2face(u[c])

    with TRACER.span("full2face", "solver"):
        out["solver.full2face_ms"] = (best(lambda: faces(big), inner=5)
                                      * 1e3, "ms")
        out["solver.full2face_small_us"] = (
            best(lambda: faces(small), inner=300) * 1e6, "us")
    with TRACER.span("CMTSolver.step", "solver"):
        r = spmd_best(1, _step_main, args=(sod_setup(1)[0],), reps=1)
        out["solver.step_ms"] = (r["step"] * 1e3, "ms")
    with TRACER.span("checkpoint", "solver"):
        ckpt = tmp / "ckpt"
        r = spmd_best(4, _ckpt_main, args=(*sod_setup(4), ckpt), reps=1)
        out["solver.ckpt_save_ms"] = (r["save"] * 1e3, "ms")
        out["solver.ckpt_load_ms"] = (r["load"] * 1e3, "ms")
        out["solver.ckpt_bytes"] = (
            sum(f.stat().st_size for f in ckpt.iterdir()), "B")
    return out


# -- gs ----------------------------------------------------------------


def _gs_main(comm, n, local_shape, calls):
    from repro.core import CMTBoneConfig
    from repro.gs import choose_method, gs_op, gs_setup
    from repro.mesh import dg_face_numbering
    from repro.mpi import SUM

    part = CMTBoneConfig(n=n, local_shape=local_shape).build_partition(
        comm.size)
    gids = dg_face_numbering(part, comm.rank)
    res = {"setup": best(lambda: gs_setup(gids, comm), reps=3)}
    handle = gs_setup(gids, comm)
    rng = np.random.default_rng(7 + comm.rank)
    x = rng.standard_normal(handle.shape)
    if comm.size > 1:
        res["autotune"] = best(
            lambda: choose_method(handle, trials=2), reps=3)
        for method in ("pairwise", "crystal", "allreduce"):
            handle.method = method
            gs_op(handle, x, op=SUM)
            res[method] = best(lambda: gs_op(handle, x, op=SUM),
                               reps=3, inner=calls)
        # Purely local passes: time them on rank 0 while the other
        # threads sleep in the barrier, so no GIL hand-off is included.
        if comm.rank == 0:
            condensed = handle.condense(x, SUM)
            res["condense"] = best(lambda: handle.condense(x, SUM),
                                   inner=2000)
            res["scatter"] = best(lambda: handle.scatter(condensed),
                                  inner=2000)
        else:
            res["condense"] = res["scatter"] = 0.0
        comm.barrier()
    else:
        handle.method = "pairwise"
        res["pairwise"] = best(lambda: gs_op(handle, x, op=SUM),
                               inner=calls)
    return res


def gs(tmp: Path) -> Metrics:
    with TRACER.span("gs on 8 thread ranks", "gs"):
        r = spmd_best(8, _gs_main, args=(5, (2, 2, 2), 40), reps=1)
    with TRACER.span("gs_op on 1 rank", "gs"):
        one = spmd_best(1, _gs_main, args=(16, (4, 4, 4), 20), reps=1)
    return {
        "gs.setup_ms": (r["setup"] * 1e3, "ms"),
        "gs.autotune_ms": (r["autotune"] * 1e3, "ms"),
        "gs.condense_us": (r["condense"] * 1e6, "us"),
        "gs.scatter_us": (r["scatter"] * 1e6, "us"),
        "gs.op_us": (r["pairwise"] * 1e6, "us"),
        "gs.crystal_op_us": (r["crystal"] * 1e6, "us"),
        "gs.allreduce_op_us": (r["allreduce"] * 1e6, "us"),
        "gs.op_1rank_us": (one["pairwise"] * 1e6, "us"),
    }


# -- mpi / net ---------------------------------------------------------


def _noop_main(comm):
    return {}


def _msg_main(comm, trips):
    from repro.mpi import MAX

    payload = np.arange(200, dtype=np.float64)  # 1600 bytes
    peer = 1 - comm.rank

    def pingpong():
        if comm.rank == 0:
            comm.send(payload, peer, tag=1)
            comm.recv(peer, tag=2)
        else:
            comm.recv(peer, tag=1)
            comm.send(payload, peer, tag=2)

    pingpong()
    res = {"pingpong": best(pingpong, reps=3, inner=trips)}
    comm.allreduce(1.0, op=MAX)
    res["allreduce"] = best(lambda: comm.allreduce(1.0, op=MAX),
                            reps=3, inner=trips)
    return res


def _launch_ms(nranks: int, backend: str, reps: int) -> float:
    from repro.mpi import Runtime

    return best(lambda: Runtime(nranks=nranks, backend=backend).run(
        _noop_main), reps=reps) * 1e3


def mpi_and_net(tmp: Path) -> Metrics:
    from repro.mpi.shm import ShmRing
    from repro.net import FrameSocket
    from repro.net.wire import ENVELOPE

    out: Metrics = {}
    with TRACER.span("launch", "mpi"):
        out["mpi.launch_threads_ms"] = (_launch_ms(8, "threads", 5), "ms")
        out["mpi.launch_procs_ms"] = (_launch_ms(2, "procs", 3), "ms")
    with TRACER.span("launch", "net"):
        out["net.launch_ms"] = (_launch_ms(2, "sockets", 3), "ms")
    for layer, backend, tag, trips in (
            ("mpi", "threads", "threads", 300), ("mpi", "procs", "procs", 300),
            ("net", "sockets", None, 300)):
        with TRACER.span(f"pingpong + allreduce on {backend}", layer):
            r = spmd_best(2, _msg_main, args=(trips,), backend=backend,
                          reps=1)
        if tag:
            out[f"mpi.pingpong_{tag}_us"] = (r["pingpong"] * 1e6, "us")
            out[f"mpi.allreduce_{tag}_us"] = (r["allreduce"] * 1e6, "us")
        else:
            out["net.pingpong_us"] = (r["pingpong"] * 1e6, "us")

    record = bytes(1600)
    ring = ShmRing(multiprocessing.get_context("fork"))
    try:
        def push_pop():
            ring.push(record)
            ring.pop(timeout=1.0)

        push_pop()
        with TRACER.span("ShmRing push+pop", "mpi"):
            out["mpi.shm_push_pop_us"] = (
                best(push_pop, inner=2000) * 1e6, "us")
    finally:
        ring.destroy()

    left, right = socket.socketpair()
    a, b = FrameSocket(left), FrameSocket(right)
    try:
        def echo():
            a.send_frame(ENVELOPE, record)
            _kind, body = b.recv_frame(timeout=1.0)
            b.send_frame(ENVELOPE, body)
            a.recv_frame(timeout=1.0)

        echo()
        with TRACER.span("FrameSocket echo", "net"):
            out["net.frame_rtt_us"] = (best(echo, inner=2000) * 1e6, "us")
    finally:
        a.close()
        b.close()
    return out


# -- lb / faults -------------------------------------------------------


def _migrate_main(comm, mesh, old, new):
    from repro.lb import migrate_elements

    rng = np.random.default_rng(11 + comm.rank)
    ids_old, ids_new = old.element_ids_of(comm.rank), new.element_ids_of(
        comm.rank)
    u_old = rng.standard_normal((5, ids_old.size, 6, 6, 6))
    u_new = rng.standard_normal((5, ids_new.size, 6, 6, 6))

    def there_and_back():
        migrate_elements(comm, ids_old, new, [("u", u_old, 1)])
        migrate_elements(comm, ids_new, old, [("u", u_new, 1)])

    there_and_back()
    return {"migrate": best(there_and_back, reps=3) / 2}


def lb_and_faults(tmp: Path) -> Metrics:
    from repro.faults import FaultPlan
    from repro.lb import ElementAssignment, sfc_partition
    from repro.mesh import BoxMesh
    from repro.solver import run_with_recovery

    out: Metrics = {}
    mesh = BoxMesh(shape=(32, 1, 1), n=6, periodic=(False, True, True))
    weights = 1.0 + 0.4 * np.arange(32) / 32
    with TRACER.span("sfc_partition", "lb"):
        out["lb.partition_us"] = (
            best(lambda: sfc_partition(mesh, 4, weights=weights),
                 inner=50) * 1e6, "us")
    old = ElementAssignment(mesh, 4, np.repeat(np.arange(4), 8))
    new = sfc_partition(mesh, 4, weights=weights[::-1] ** 4)
    with TRACER.span("migrate_elements", "lb"):
        r = spmd_best(4, _migrate_main, args=(mesh, old, new), reps=1)
        out["lb.migrate_ms"] = (r["migrate"] * 1e3, "ms")

    def campaign(tag, plan):
        t0 = time.perf_counter()
        _states, report = run_with_recovery(
            sod_setup(wl.SOD_RANKS, lb=True)[0], nranks=wl.SOD_RANKS,
            nsteps=wl.SOD_STEPS, dt=2e-4, checkpoint_every=10,
            checkpoint_dir=tmp / f"ckpt-{tag}", fault_plan=plan)
        return time.perf_counter() - t0, report

    with TRACER.span("run_with_recovery (clean)", "faults"):
        clean_s, _ = campaign("clean", None)
    with TRACER.span("run_with_recovery (one crash)", "faults"):
        crash_s, report = campaign("crash", FaultPlan.parse(
            f"crash:rank=1,step={wl.SOD_CRASH_STEP}", seed=0))
    rebuilds = sum(
        r.count for r in report.campaign_profile().aggregates()
        if r.op == "LB_Rebuild")
    out["faults.restarts"] = (report.restarts, "count")
    out["faults.replayed_steps"] = (report.steps_lost, "count")
    out["faults.recovery_ms"] = ((crash_s - clean_s) * 1e3, "ms")
    out["lb.rebalances"] = (rebuilds / wl.SOD_RANKS, "count")
    return out


# -- cli ---------------------------------------------------------------


def cli_report(tmp: Path) -> Metrics:
    from repro.analysis import full_report
    from repro.core import cmtbone_profile_report, launch_cmtbone

    import replay

    cfg, nranks, backend = replay.job_of(wl.BY_NAME["xchg_threads"], 10)
    results, rt = launch_cmtbone(cfg, nranks=nranks, backend=backend)

    def report():
        cmtbone_profile_report(results)
        full_report(rt.job_profile(), top_n=12)

    with TRACER.span("profile + MPI report", "cli"):
        return {"cli.report_ms": (best(report) * 1e3, "ms")}


# -- service -----------------------------------------------------------


def service(tmp: Path, seed: int) -> Metrics:
    from repro.service import (
        ArtifactCache, DiskArtifactStore, JobSpec, WorkerPool, run_campaign,
        run_job, spec_artifact_key,
    )

    out: Metrics = {}
    # Single calls are measured on one CPU like everything else (two
    # thread ranks spread over two CPUs are bimodal); only the campaign,
    # whose two workers are the point, gets every CPU back.
    every_cpu = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(every_cpu)})

    def pool_cycle():
        WorkerPool(nworkers=wl.CAMPAIGN_WORKERS).close()

    with TRACER.span("WorkerPool open/close", "service"):
        out["service.pool_start_ms"] = (best(pool_cycle, reps=3) * 1e3, "ms")

    spec = JobSpec.from_json(wl.SETUP_JOB)
    colds, warms = [], []
    with TRACER.span("run_job cold/warm", "service"):
        for _ in range(REPS):
            cache = ArtifactCache()
            for bucket in (colds, warms):
                t0 = time.perf_counter()
                result = run_job(spec, cache)
                bucket.append(time.perf_counter() - t0)
                assert result.ok, result.error
    out["service.run_job_cold_ms"] = (min(colds) * 1e3, "ms")
    out["service.run_job_warm_ms"] = (min(warms) * 1e3, "ms")

    key = spec_artifact_key(spec)
    entry = cache.lookup(key, spec.nranks)
    with TRACER.span("DiskArtifactStore publish/fetch", "service"):
        store = DiskArtifactStore(tmp / "store")
        out["service.disk_publish_ms"] = (
            best(lambda: store.publish(key, entry)) * 1e3, "ms")
        out["service.disk_fetch_ms"] = (
            best(lambda: store.fetch(key, spec.nranks)) * 1e3, "ms")

    os.sched_setaffinity(0, every_cpu)
    specs = [JobSpec.from_json(j) for j in wl.campaign_jobs(seed)]
    with TRACER.span("run_campaign (140 jobs)", "service"):
        with redirect_stdout(io.StringIO()):
            report = run_campaign(specs, nworkers=wl.CAMPAIGN_WORKERS,
                                  artifact_dir=str(tmp / "artifacts"))
    results = report.results
    assert not report.failed, report.failed[0].error
    busy = sum(r.exec_seconds for r in results)
    lookups = report.cache_hits + report.cache_misses
    out["service.overhead_ms_per_job"] = (
        (report.wall_seconds * wl.CAMPAIGN_WORKERS - busy)
        / len(results) * 1e3, "ms")
    out["service.queue_wait_p50_ms"] = (statistics.median(
        r.latency_seconds - r.exec_seconds for r in results) * 1e3, "ms")
    out["service.cache_hit_ratio"] = (report.cache_hits / lookups, "ratio")
    out["service.batched_dispatches"] = (
        report.queue_stats["batched_dispatches"], "count")
    return out


# -- entry -------------------------------------------------------------


def run_group(group: str, tmp: Path, seed: int) -> dict:
    metrics: Metrics = {}
    checks: Dict[str, bool] = {}
    traces: Dict[str, list] = {}
    if group == "replay":
        import replay

        for name in replay.REPLAY_STEPS:
            with TRACER.span(f"replay {name}", "core"):
                r = replay.replay_workload(wl.BY_NAME[name])
            traces[name] = r.pop("spans")
            checks[f"{name}: replay monitor == CMTBone monitor"] = r[
                "monitor_matches"]
            for layer, ms in r["layer_ms"].items():
                metrics[f"replay.{name}.{layer}_ms"] = (ms, "ms")
            metrics[f"core.unattributed_share.{name}"] = (
                r["unattributed_share"], "ratio")
            print(f"# {name}: untraced step {r['untraced_step_ms']:.3f} ms, "
                  f"traced {r['traced_step_ms']:.3f} ms, tracing overhead "
                  f"{r['traced_step_ms'] / r['untraced_step_ms'] - 1:+.1%}",
                  file=sys.stderr)
            if name == "xchg_threads":
                metrics["gs.msgs_per_step"] = (r["msgs_per_step"], "count")
                metrics["gs.bytes_per_step"] = (r["bytes_per_step"], "B")
                metrics["mpi.vtime_s"] = (r["vtime_s"], "s")
    elif group == "layers":
        for part in (kernels_and_kir, solver, gs, mpi_and_net,
                     lb_and_faults, cli_report):
            metrics.update(part(tmp))
    elif group == "service":
        metrics.update(service(tmp, seed))
    else:
        raise SystemExit(f"unknown group {group!r}")
    traces[group] = TRACER.spans
    return {"metrics": metrics, "checks": checks, "traces": traces}


def main() -> None:
    group, tmp, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    doc = run_group(group, tmp, seed)
    # The last stdout line, whatever the measured code printed before.
    os.write(1, b"\n" + json.dumps(doc).encode() + b"\n")


if __name__ == "__main__":
    main()
