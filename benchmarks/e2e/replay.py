"""SPMD replay of ``CMTBone.timestep`` written only with public calls.

For each ``cmtbone`` workload the replay performs, on the workload's
shapes and backend, the sequence the mini-app performs —

    grad x neq -> full2face x neq -> gs_op x neq -> update   (x rk_stages)
    Comm.allreduce                                          (monitor)

— with every call into a layer wrapped in a span.  Its monitor values
must equal ``CMTBoneResult.monitor_values`` of the real mini-app on the
same config bit for bit, which shows it did the same numerical work.
What the real step costs beyond the replay's spans (profiler regions,
timeline recording, virtual-clock charging, phase dispatch) is the
``core`` layer's unattributed share.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

from repro.cli import build_parser
from repro.core import CMTBone, CMTBoneConfig
from repro.gs import choose_method, gs_op, gs_setup
from repro.kernels import Workspace, derivative_matrix, grad, grad_workspace
from repro.mesh import dg_face_numbering
from repro.mpi import MAX, SUM, Runtime
from repro.solver import full2face

import workloads as wl
from spans import Tracer, self_times

#: Steps per replay: enough for a stable per-step mean, few enough that
#: four replays and four reference runs fit the traced run's budget.
REPLAY_STEPS = {
    "kernel_n16": 12, "xchg_threads": 30,
    "xchg_procs": 60, "xchg_sockets": 60,
}

#: Layers a replayed step's spans are attributed to.
STEP_LAYERS = ("kernels", "solver", "gs", "mpi", "core")


def job_of(w: wl.Workload, nsteps: int) -> Tuple[CMTBoneConfig, int, str]:
    """``(config, nranks, backend)`` exactly as the CLI builds them."""
    args = build_parser().parse_args([*w.base, "--steps", str(nsteps)])
    config = CMTBoneConfig(
        n=args.points, local_shape=args.local, proc_shape=args.proc,
        nsteps=args.steps, kernel_variant=args.variant,
        gs_method=args.gs_method,
    )
    return config, args.ranks, args.backend


def replay_main(comm, cfg: CMTBoneConfig):
    """One rank of the traced replay: ``(monitor, spans)``."""
    tr = Tracer(comm.rank)
    part = cfg.build_partition(comm.size)
    n, nel, neq = cfg.n, part.nel_local, cfg.neq
    dmat = np.asarray(derivative_matrix(n))
    with tr.span("setup", "core"):
        with tr.span("gs_setup", "gs"):
            handle = gs_setup(dg_face_numbering(part, comm.rank), comm,
                              site="gs_setup")
        if cfg.gs_method is not None:
            handle.method = cfg.gs_method
        elif comm.size > 1:
            with tr.span("choose_method", "gs"):
                choose_method(handle, trials=cfg.autotune_trials)
        else:
            handle.method = "pairwise"
    rng = np.random.default_rng(cfg.seed + comm.rank)
    u = rng.standard_normal((neq, nel, n, n, n))
    faces = np.zeros((neq, nel, 6, n, n))
    work = Workspace()
    monitor: List[float] = []
    for istep in range(cfg.nsteps):
        with tr.span("step", "core", step=istep):
            for _stage in range(cfg.rk_stages):
                for c in range(neq):
                    with tr.span("grad", "kernels"):
                        grad(u[c], dmat, variant=cfg.kernel_variant,
                             out=grad_workspace(work, u[c]))
                for c in range(neq):
                    with tr.span("full2face", "solver"):
                        faces[c] = full2face(u[c])
                for c in range(neq):
                    with tr.span("gs_op", "gs"):
                        faces[c] = gs_op(handle, faces[c], op=SUM,
                                         site="gs_op_")
                with tr.span("update", "core"):
                    u *= 0.75
                    t = work.like(u, key="upd:t")
                    np.multiply(u, 0.25, out=t)
                    u += t
            with tr.span("allreduce", "mpi"):
                local = float(np.max(np.abs(faces)))
                monitor.append(comm.allreduce(local, op=MAX,
                                              site="monitor"))
    return monitor, tr.spans


def reference_main(comm, cfg: CMTBoneConfig):
    """One rank of the untraced mini-app: ``(monitor, step walls, vtime)``."""
    app = CMTBone(comm, cfg)
    walls = []
    for _ in range(cfg.nsteps):
        t0 = time.perf_counter()
        result = app.run(1)
        walls.append(time.perf_counter() - t0)
    return result.monitor_values, walls, result.vtime_total


def _median_ms(per_rank_step_seconds) -> float:
    """Median over steps, then mean over ranks, in ms."""
    return 1e3 * statistics.fmean(
        statistics.median(steps) for steps in per_rank_step_seconds)


def replay_workload(w: wl.Workload) -> dict:
    """Reference run, then traced replay, of one ``cmtbone`` workload.

    Per-step quantities are medians over the steps (then means over the
    ranks), so a step that fell into a slow moment of the host does not
    set the value.
    """
    nsteps = REPLAY_STEPS[w.name]
    cfg, nranks, backend = job_of(w, nsteps)
    ref = Runtime(nranks=nranks, backend=backend).run(
        reference_main, args=(cfg,))
    rt = Runtime(nranks=nranks, backend=backend)
    rep = rt.run(replay_main, args=(cfg,))

    spans = [s for _m, rank_spans in rep for s in rank_spans]
    stepped = [s for s in spans if s["step"] is not None]
    own = self_times(stepped)
    # [layer][rank][step] -> self seconds; "calls" holds everything but
    # the step span's own self time (the replay's loop overhead).
    zeros = [[0.0] * nsteps for _ in range(nranks)]
    layer_s = {k: [row[:] for row in zeros] for k in (*STEP_LAYERS, "calls")}
    for s in stepped:
        sec = own[(s["rank"], s["id"])]
        layer_s[s["layer"]][s["rank"]][s["step"]] += sec
        if s["name"] != "step":
            layer_s["calls"][s["rank"]][s["step"]] += sec
    traced_s = [[s["end"] - s["start"] for s in stepped
                 if s["rank"] == r and s["name"] == "step"]
                for r in range(nranks)]
    ref_step_ms = _median_ms(walls for _m, walls, _v in ref)
    sends = [r for r in rt.job_profile().aggregates()
             if r.site == "gs_op_" and r.op == "MPI_Isend"]
    return {
        "spans": spans,
        "monitor_matches": all(
            a[0] == b[0] and len(a[0]) == nsteps for a, b in zip(ref, rep)),
        "layer_ms": {k: _median_ms(layer_s[k]) for k in STEP_LAYERS},
        "untraced_step_ms": ref_step_ms,
        "traced_step_ms": _median_ms(traced_s),
        "unattributed_share":
            1.0 - _median_ms(layer_s["calls"]) / ref_step_ms,
        "msgs_per_step": sum(r.count for r in sends) / nsteps,
        "bytes_per_step": sum(r.bytes_total for r in sends) / nsteps,
        "vtime_s": max(v for _m, _t, v in ref),
    }
