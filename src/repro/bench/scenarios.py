"""The canonical workload scenarios tracked by the perf gate.

Each scenario is a zero-argument callable that performs one measurement
pass and returns a list of :class:`~repro.bench.schema.Metric` values.
The runner calls it ``repeats`` times: wall metrics are aggregated
(min-of-repeats gates, mean/max/std recorded), virtual and count
metrics must come back *identical* on every repeat — the virtual-time
model is deterministic by construction, and the runner enforces it.

The registry covers the paper's measurement axes:

* ``kernels`` — derivative-kernel wall-clock across the N = 5..25
  sweep (Fig. 5's x-axis), the head-to-head sweep of every kernel-IR
  schedule (Section V's loop forms), and the workspace-reuse
  optimization (alloc vs ``out=`` paths, which must stay bitwise
  identical *and* faster).
* ``comms`` — the three-way gather-scatter method auto-tune (Fig. 7)
  and the split-phase overlap schedule's hidden-communication account.
* backend scenarios (``kernels/backend_deriv4``, ``comms/backend_gs``)
  — threads vs procs execution: wall speedup of the process backend on
  real kernels and exact virtual-time parity on the gs exchange.
* ``solver`` — Sod shock-tube step throughput and the fault-recovery
  / load-balancing virtual-time campaigns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .schema import GROUPS, Metric

#: Machine preset used for every modelled/virtual measurement, so the
#: numbers are comparable across hosts (the paper's Vulcan stand-in is
#: calibrated separately; ``compton`` is the small-cluster preset).
VIRTUAL_MACHINE = "compton"


@dataclass(frozen=True)
class Scenario:
    """A registered benchmark scenario."""

    id: str
    group: str
    fn: Callable[[], List[Metric]]
    #: Fast scenarios run in the PR perf gate; slow ones only in the
    #: nightly full sweep.
    fast: bool = True
    #: Default repeat count (the runner may override).
    repeats: int = 3
    params: Mapping[str, object] = field(default_factory=dict)


_REGISTRY: Dict[str, Scenario] = {}


def register(
    scenario_id: str,
    group: str,
    *,
    fast: bool = True,
    repeats: int = 3,
    **params: object,
) -> Callable[[Callable[[], List[Metric]]], Callable[[], List[Metric]]]:
    """Decorator: add a scenario function to the registry."""
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")

    def deco(fn: Callable[[], List[Metric]]) -> Callable[[], List[Metric]]:
        if scenario_id in _REGISTRY:
            raise ValueError(f"duplicate scenario id {scenario_id!r}")
        _REGISTRY[scenario_id] = Scenario(
            id=scenario_id,
            group=group,
            fn=fn,
            fast=fast,
            repeats=repeats,
            params=dict(params),
        )
        return fn

    return deco


def all_scenarios() -> List[Scenario]:
    return list(_REGISTRY.values())


def get_scenario(scenario_id: str) -> Scenario:
    try:
        return _REGISTRY[scenario_id]
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario_id!r} "
            f"(known: {sorted(_REGISTRY)})"
        ) from None


def select_scenarios(
    groups: Optional[Sequence[str]] = None,
    fast_only: bool = False,
) -> List[Scenario]:
    picked = []
    for s in _REGISTRY.values():
        if groups is not None and s.group not in groups:
            continue
        if fast_only and not s.fast:
            continue
        picked.append(s)
    return picked


# ---------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------


def _wall(fn: Callable[[], object], iters: int, warmup: int = 1) -> float:
    """Best-of-``iters`` wall seconds for one call of ``fn``."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _machine():
    from ..perfmodel.machine import MachineModel

    return MachineModel.preset(VIRTUAL_MACHINE)


# ---------------------------------------------------------------------
# kernels — derivative kernel wall-clock + roofline model
# ---------------------------------------------------------------------


def _deriv_scenario(
    n: int, nel: int, variant: str, iters: int
) -> List[Metric]:
    from ..kernels import counters, derivative_matrix
    from ..kernels import derivatives as dk

    rng = np.random.default_rng(42 + n)
    u = rng.standard_normal((nel, n, n, n))
    dmat = derivative_matrix(n)
    out = (np.empty_like(u), np.empty_like(u), np.empty_like(u))
    wall = _wall(lambda: dk.grad(u, dmat, variant=variant, out=out), iters)
    model = counters.roofline_seconds(n, nel, _machine(), variant=variant)
    return [
        Metric("grad_wall_s", wall, kind="wall", unit="s"),
        Metric("grad_model_s", model, kind="virtual", unit="s"),
        Metric(
            "points",
            float(nel * n**3),
            kind="count",
            unit="gridpoints",
            better="higher",
        ),
    ]


def _register_deriv_sweep() -> None:
    # The paper's N = 5..25 sweep; per-rank element count scaled so the
    # working set stays roughly constant (~25k grid points).
    for n in (5, 10, 15, 20, 25):
        nel = max(1, 24576 // n**3)

        def fn(n: int = n, nel: int = nel) -> List[Metric]:
            return _deriv_scenario(n, nel, "fused", iters=5)

        register(
            f"kernels/deriv_n{n:02d}",
            "kernels",
            repeats=3,
            n=n,
            nel=nel,
            variant="fused",
        )(fn)


_register_deriv_sweep()


@register("kernels/workspace", "kernels", repeats=3, n=12, nel=48)
def _kernels_workspace() -> List[Metric]:
    """Allocating vs workspace-reuse gradient: speedup and bitwise parity.

    This is the optimization the baselines capture: the RK loop used to
    allocate three fresh ``(nel, N, N, N)`` arrays per gradient; with a
    :class:`~repro.kernels.workspace.Workspace` it reuses them.  The
    two paths must agree bitwise (gated as an exact count metric).
    """
    from ..kernels import Workspace, derivative_matrix
    from ..kernels import derivatives as dk

    n, nel, iters = 12, 48, 5
    rng = np.random.default_rng(7)
    u = rng.standard_normal((nel, n, n, n))
    dmat = derivative_matrix(n)
    work = Workspace()

    alloc_wall = _wall(lambda: dk.grad(u, dmat), iters)
    reuse_wall = _wall(
        lambda: dk.grad(u, dmat, out=dk.grad_workspace(work, u)), iters
    )
    ga = dk.grad(u, dmat)
    gr = dk.grad(u, dmat, out=dk.grad_workspace(work, u))
    bitwise = all(np.array_equal(a, r, equal_nan=True) for a, r in zip(ga, gr))
    return [
        Metric("alloc_wall_s", alloc_wall, kind="wall", unit="s"),
        Metric("reuse_wall_s", reuse_wall, kind="wall", unit="s"),
        Metric(
            "reuse_speedup_x",
            alloc_wall / reuse_wall,
            kind="wall",
            unit="x",
            better="higher",
            rel_tol=1.0,
        ),
        Metric(
            "bitwise_identical",
            float(bitwise),
            kind="count",
            unit="bool",
            better="higher",
        ),
    ]


@register("kernels/schedule_sweep", "kernels", repeats=1)
def _kernels_schedule_sweep() -> List[Metric]:
    """Every surviving schedule of every program, timed head to head.

    This is the table a schedule has to earn its place in (ROADMAP
    item 2; see docs/kernel-ir.md): per program and N, the best-of-6
    wall time of each applicable schedule, plus per program how many
    of the four N each schedule wins.  A schedule that wins no cell
    and has no other reason to stay is a deletion candidate;
    ``gemm_rev`` stays because it wins ``interp_fine``.  The winner
    counts are measurements (kind ``wall``, informational tolerance),
    not model outputs.
    """
    from ..kir import applicable_schedules, build_program, lower, schedule
    from ..kir.autotune import synth_inputs

    metrics: List[Metric] = []
    for program in ("grad", "interp_fine", "interp_coarse"):
        wins: Dict[str, int] = {}
        for n in (5, 10, 16, 25):
            nel = max(1, 24576 // n**3)
            prog = build_program(program, n)
            inputs = synth_inputs(prog, nel, seed=n)
            fns = {
                sched: lower(schedule(prog, sched)).fn
                for sched in applicable_schedules(prog)
            }
            # Rounds interleave the schedules so a slow phase of the
            # host lands on all of them, not on one.
            walls = {sched: float("inf") for sched in fns}
            for _ in range(6):
                for sched, fn in fns.items():
                    walls[sched] = min(
                        walls[sched], _wall(lambda: fn(*inputs), 1, 0)
                    )
            for sched, wall in walls.items():
                wins.setdefault(sched, 0)
                metrics.append(
                    Metric(f"{program}_n{n:02d}_{sched}_wall_s", wall,
                           kind="wall", unit="s")
                )
            wins[min(walls, key=walls.__getitem__)] += 1
        metrics.extend(
            Metric(f"{program}_winner_is_{sched}", float(count),
                   kind="wall", unit="cells", better="higher")
            for sched, count in wins.items()
        )
    return metrics


# ---------------------------------------------------------------------
# comms — gather-scatter method comparison + overlap accounting
# ---------------------------------------------------------------------


def _cmtbone_run(
    nranks: int,
    machine: Optional[str] = None,
    backend: str = "threads",
    **overrides: object,
):
    """One proxy-mode CMT-bone job; returns the per-rank result list."""
    from ..core.cmtbone import launch_cmtbone
    from ..core.config import CMTBoneConfig
    from ..perfmodel.machine import MachineModel

    kwargs: Dict[str, object] = dict(
        n=8,
        local_shape=(2, 2, 2),
        nsteps=6,
        work_mode="proxy",
        monitor_every=2,
    )
    kwargs.update(overrides)
    cfg = CMTBoneConfig(**kwargs)
    m = MachineModel.preset(machine) if machine else _machine()
    results, _rt = launch_cmtbone(
        cfg, nranks=nranks, machine=m, backend=backend
    )
    return results


def _gs_op_main(comm, cfg, method) -> None:
    """``gs_setup`` on the job's face numbering, then one ``gs_op`` by
    ``method`` (none for ``None``)."""
    from ..gs import gs_op, gs_setup
    from ..mesh import dg_face_numbering

    gids = dg_face_numbering(cfg.build_partition(comm.size), comm.rank)
    handle = gs_setup(gids, comm)
    if method is not None:
        gs_op(handle, np.zeros(handle.shape), method=method)


def _gs_op_wire(method: str) -> List[int]:
    """Sizes of the messages one ``gs_op`` by ``method`` sends across an
    8-rank job: what a traced run sends beyond the same run without the
    op, rank by rank in program order."""
    from ..core.config import CMTBoneConfig
    from ..mpi import Runtime

    cfg = CMTBoneConfig(n=8, local_shape=(2, 2, 2))
    sent = []
    for m in (None, method):
        rt = Runtime(nranks=8, machine=_machine(), trace_messages=True)
        rt.run(_gs_op_main, args=(cfg, m))
        sent.append([rt.trace.rank_events(r) for r in range(8)])
    return [e.nbytes for setup, job in zip(*sent) for e in job[len(setup):]]


@register("comms/gs_methods", "comms", repeats=2, nranks=8)
def _comms_gs_methods() -> List[Metric]:
    """Fig. 7's three-way auto-tune on a small job (virtual time), and
    what one crystal-router and one allreduce ``gs_op`` put on the wire
    across that job: messages and bytes from the trace, exact on every
    host because a crystal stage message's size is a closed form of its
    record counts and the allreduce's is the dense vector's."""
    wire = {m: _gs_op_wire(m) for m in ("crystal", "allreduce")}
    res = _cmtbone_run(8, gs_method=None)[0]
    assert res.autotune is not None
    metrics = [
        Metric(
            f"{method}_avg_s",
            timing.avg,
            kind="virtual",
            unit="s",
        )
        for method, timing in sorted(res.autotune.items())
    ]
    metrics.append(
        Metric(
            "chosen_is_pairwise",
            float(res.chosen_method == "pairwise"),
            kind="count",
            unit="bool",
            better="higher",
        )
    )
    for method, sizes in wire.items():
        metrics.append(Metric(f"{method}_msgs_per_op", float(len(sizes)),
                              kind="count", unit="messages"))
        metrics.append(Metric(f"{method}_bytes_per_op", float(sum(sizes)),
                              kind="count", unit="B"))
    return metrics


@register("comms/overlap", "comms", repeats=2, nranks=8, machine="opteron6378")
def _comms_overlap() -> List[Metric]:
    """Blocking vs split-phase overlapped schedule (virtual time).

    Runs on the ``opteron6378`` preset: its network is slow enough
    relative to the update compute that the split-phase schedule has
    real message flight time to hide (on ``compton`` the messages land
    before the finish call and the accounts are all zero).
    """
    blocking = _cmtbone_run(
        8, machine="opteron6378", gs_method="pairwise", overlap=False
    )[0]
    overlap = _cmtbone_run(
        8, machine="opteron6378", gs_method="pairwise", overlap=True
    )[0]
    return [
        Metric("vtime_blocking_s", blocking.vtime_total, kind="virtual"),
        Metric("vtime_overlap_s", overlap.vtime_total, kind="virtual"),
        Metric(
            "hidden_comm_s",
            overlap.vtime_hidden_comm,
            kind="virtual",
            better="higher",
        ),
        Metric(
            "overlap_speedup_x",
            blocking.vtime_total / overlap.vtime_total,
            kind="virtual",
            unit="x",
            better="higher",
        ),
    ]


# ---------------------------------------------------------------------
# backends — threads vs procs execution (tentpole of the backend PR)
# ---------------------------------------------------------------------


def _backend_deriv_main(comm, n: int, nel: int, iters: int) -> float:
    """Per-rank real derivative work for the backend comparison."""
    from ..kernels import derivative_matrix
    from ..kernels import derivatives as dk

    rng = np.random.default_rng(1000 + comm.rank)
    u = rng.standard_normal((nel, n, n, n))
    dmat = derivative_matrix(n)
    out = (np.empty_like(u), np.empty_like(u), np.empty_like(u))
    for _ in range(iters):
        dk.grad(u, dmat, variant="fused", out=out)
    comm.barrier()
    return float(out[0][0, 0, 0, 0])


@register(
    "kernels/backend_deriv4",
    "kernels",
    repeats=2,
    nranks=4,
    n=12,
    nel=28,
    variant="fused",
)
def _kernels_backend_deriv() -> List[Metric]:
    """Threads vs procs backend on the derivative kernel at 4 ranks.

    The same real (GIL-heavy on threads) gradient workload runs once
    per backend; ``procs_speedup_x`` is the whole point of the process
    backend — on a multi-core host it approaches the core count, on a
    single-core host it hovers near (or below) 1.  Wall metrics are
    host-fingerprint-gated as usual; the count metric pins cross-backend
    result agreement.
    """
    from ..mpi import Runtime

    n, nel, iters, nranks = 12, 28, 6, 4
    walls: Dict[str, float] = {}
    checks: Dict[str, List[float]] = {}
    for backend in ("threads", "procs"):
        rt = Runtime(nranks=nranks, machine=_machine(), backend=backend)
        t0 = time.perf_counter()
        checks[backend] = rt.run(
            _backend_deriv_main, args=(n, nel, iters)
        )
        walls[backend] = time.perf_counter() - t0
    return [
        Metric("threads_wall_s", walls["threads"], kind="wall", unit="s"),
        Metric("procs_wall_s", walls["procs"], kind="wall", unit="s"),
        Metric(
            "procs_speedup_x",
            walls["threads"] / walls["procs"],
            kind="wall",
            unit="x",
            better="higher",
            rel_tol=1.0,
        ),
        Metric(
            "results_identical",
            float(checks["threads"] == checks["procs"]),
            kind="count",
            unit="bool",
            better="higher",
        ),
    ]


@register("comms/backend_gs", "comms", repeats=2, nranks=4)
def _comms_backend_gs() -> List[Metric]:
    """Virtual-time parity of the gs exchange across backends.

    The acceptance bar for any new backend: the modelled communication
    account of a CMT-bone job must be *identical* whether the ranks are
    threads or processes.  ``vtime_identical`` gates exact equality of
    every rank's (total, comm) pair; the per-backend virtual totals are
    additionally gated at the comparator's virtual tolerance.
    """
    vt: Dict[str, List[tuple]] = {}
    walls: Dict[str, float] = {}
    for backend in ("threads", "procs"):
        t0 = time.perf_counter()
        res = _cmtbone_run(4, gs_method="pairwise", backend=backend)
        walls[backend] = time.perf_counter() - t0
        vt[backend] = [(r.vtime_total, r.vtime_comm) for r in res]
    return [
        Metric(
            "vtime_threads_s",
            max(t for t, _ in vt["threads"]),
            kind="virtual",
            unit="s",
        ),
        Metric(
            "vtime_procs_s",
            max(t for t, _ in vt["procs"]),
            kind="virtual",
            unit="s",
        ),
        Metric(
            "vtime_identical",
            float(vt["threads"] == vt["procs"]),
            kind="count",
            unit="bool",
            better="higher",
        ),
        Metric("threads_wall_s", walls["threads"], kind="wall", unit="s"),
        Metric("procs_wall_s", walls["procs"], kind="wall", unit="s"),
    ]


@register("comms/backend_sockets", "comms", repeats=2, nranks=4)
def _comms_backend_sockets() -> List[Metric]:
    """Virtual-time parity of the sockets backend vs threads.

    Same acceptance bar the procs backend passed: running the CMT-bone
    job with every rank in its own OS process behind TCP sockets must
    leave the modelled communication account bit-for-bit unchanged.
    ``vtime_identical`` gates exact equality of every rank's
    (total, comm) pair; the wall metrics record what the socket mesh
    (rendezvous, per-peer connections, pickled frames) costs in real
    time next to the in-process threads run.
    """
    vt: Dict[str, List[tuple]] = {}
    walls: Dict[str, float] = {}
    for backend in ("threads", "sockets"):
        t0 = time.perf_counter()
        res = _cmtbone_run(4, gs_method="pairwise", backend=backend)
        walls[backend] = time.perf_counter() - t0
        vt[backend] = [(r.vtime_total, r.vtime_comm) for r in res]
    return [
        Metric(
            "vtime_threads_s",
            max(t for t, _ in vt["threads"]),
            kind="virtual",
            unit="s",
        ),
        Metric(
            "vtime_sockets_s",
            max(t for t, _ in vt["sockets"]),
            kind="virtual",
            unit="s",
        ),
        Metric(
            "vtime_identical",
            float(vt["threads"] == vt["sockets"]),
            kind="count",
            unit="bool",
            better="higher",
        ),
        Metric("threads_wall_s", walls["threads"], kind="wall", unit="s"),
        Metric("sockets_wall_s", walls["sockets"], kind="wall", unit="s"),
    ]


# ---------------------------------------------------------------------
# solver — Sod throughput, fault/LB campaigns
# ---------------------------------------------------------------------


def _sod_main(nranks: int, nsteps: int):
    """Run the Sod campaign; returns (final u of rank 0, virtual time)."""
    from ..mpi import Runtime
    from ..solver import sod_problem

    setup = sod_problem(nranks, n=6, nelx=16, gs_method="pairwise")

    def main(comm):
        solver, state = setup(comm)
        final = solver.run(state, nsteps)
        return final.u.copy(), comm.time()

    rt = Runtime(nranks=nranks, machine=_machine())
    return rt.run(main)


@register(
    "solver/sod_throughput",
    "solver",
    repeats=3,
    nranks=2,
    n=6,
    nelx=16,
    nsteps=8,
)


def _solver_sod_throughput() -> List[Metric]:
    nsteps = 8
    t0 = time.perf_counter()
    results = _sod_main(2, nsteps)
    wall = time.perf_counter() - t0
    vtime = max(r[1] for r in results)
    return [
        Metric(
            "steps_per_s",
            nsteps / wall,
            kind="wall",
            unit="steps/s",
            better="higher",
        ),
        Metric("campaign_wall_s", wall, kind="wall", unit="s"),
        Metric("vtime_total_s", vtime, kind="virtual", unit="s"),
    ]


@register(
    "solver/fault_campaign",
    "solver",
    repeats=2,
    nranks=2,
    nsteps=10,
    crash_step=5,
    checkpoint_every=3,
)


def _solver_fault_campaign() -> List[Metric]:
    """Crash-and-recover campaign: virtual-time cost decomposition."""
    import tempfile

    from ..faults.plan import FaultPlan
    from ..solver import run_with_recovery, sod_problem

    setup = sod_problem(2, n=6, nelx=16, gs_method="pairwise")
    plan = FaultPlan.parse("crash:rank=1,step=5", seed=0)
    with tempfile.TemporaryDirectory() as ckpt:
        _, report = run_with_recovery(
            setup,
            nranks=2,
            nsteps=10,
            checkpoint_every=3,
            checkpoint_dir=ckpt,
            fault_plan=plan,
            machine=_machine(),
        )
    return [
        Metric(
            "campaign_vtime_s",
            report.total_virtual_seconds,
            kind="virtual",
        ),
        Metric("lost_work_s", report.lost_work_seconds, kind="virtual"),
        Metric(
            "restart_overhead_s",
            report.restart_overhead_seconds,
            kind="virtual",
        ),
        Metric(
            "restarts",
            float(report.restarts),
            kind="count",
            unit="restarts",
        ),
    ]


@register(
    "solver/lb_imbalance",
    "solver",
    fast=False,
    repeats=2,
    nranks=8,
    imbalance=0.4,
    nsteps=24,
)


def _solver_lb_imbalance() -> List[Metric]:
    """Load-balancer ablation under injected compute imbalance.

    At mini-app scale the rebalance migrations cost more virtual time
    than they recover, so the gated quantity is the one the subsystem
    exists to move: the steady-state max/mean cost imbalance across
    ranks (cf. benchmarks/bench_lb_ablation.py).  The "off" side runs
    ``lb_mode="manual"`` — cost monitor on, corrections off — so the
    imbalance metric has the same meaning on both sides.
    """

    def imbalance(results) -> float:
        costs = [r.lb_window_cost for r in results]
        mean = sum(costs) / len(costs)
        return max(costs) / mean if mean else 0.0

    common = dict(
        gs_method="pairwise",
        compute_imbalance=0.4,
        nsteps=24,
        monitor_every=4,
        lb_threshold=1.05,
        lb_min_interval=4,
    )
    off = _cmtbone_run(8, lb_mode="manual", **common)
    lb = _cmtbone_run(8, lb_mode="auto", **common)
    imb_off, imb_lb = imbalance(off), imbalance(lb)
    return [
        Metric(
            "cost_imbalance_off",
            imb_off,
            kind="virtual",
            unit="ratio",
        ),
        Metric(
            "cost_imbalance_lb",
            imb_lb,
            kind="virtual",
            unit="ratio",
        ),
        Metric(
            "imbalance_reduction_x",
            imb_off / imb_lb,
            kind="virtual",
            unit="x",
            better="higher",
        ),
        Metric(
            "vtime_lb_s",
            max(r.vtime_total for r in lb),
            kind="virtual",
        ),
        Metric(
            "rebalances",
            float(max(r.lb_rebalances for r in lb)),
            kind="count",
            unit="rebalances",
        ),
    ]


# ---------------------------------------------------------------------
# service: job-service throughput, latency, and setup-artifact cache
# ---------------------------------------------------------------------


def _service_specs(n_cmt: int, n_sod: int) -> list:
    from ..service import JobSpec

    specs = []
    for i in range(n_cmt):
        specs.append(JobSpec(
            kind="cmtbone", name=f"cmt{i}", nranks=2,
            machine=VIRTUAL_MACHINE,
            params={"n": 5, "nel": 8, "nsteps": 3},
        ))
    for i in range(n_sod):
        specs.append(JobSpec(
            kind="sod", name=f"sod{i}", nranks=2,
            machine=VIRTUAL_MACHINE,
            params={"n": 5, "nelx": 8, "nsteps": 3},
        ))
    return specs


@register(
    "service/campaign_throughput",
    "service",
    repeats=2,
    jobs=20,
    workers=2,
)


def _service_campaign_throughput() -> List[Metric]:
    """20 mixed jobs through the pool vs a fresh process per job.

    The sequential baseline forks a one-shot worker per job (cold
    cache), which is exactly the fixed cost the persistent pool
    amortises; the speedup gates the service's reason to exist.
    """
    from ..service import JobSpec, run_campaign
    from ..service.pool import WorkerPool

    specs = _service_specs(15, 5)
    report = run_campaign(specs, nworkers=2)
    if report.failed:
        raise RuntimeError(
            f"campaign failed: {report.failed[0].error}"
        )

    seq_specs = _service_specs(15, 5)
    t0 = time.perf_counter()
    for spec in seq_specs:
        with WorkerPool(nworkers=1) as pool:
            pool.dispatch(0, [spec])
            results = pool.wait()[0]
        if results[0].status != "done":
            raise RuntimeError(f"sequential job failed: {results[0].error}")
    seq_wall = time.perf_counter() - t0

    return [
        Metric(
            "jobs_per_s",
            report.jobs_per_second,
            kind="wall",
            unit="jobs/s",
            better="higher",
        ),
        Metric("campaign_wall_s", report.wall_seconds, kind="wall"),
        Metric("sequential_wall_s", seq_wall, kind="wall"),
        Metric(
            "pool_speedup_x",
            seq_wall / report.wall_seconds,
            kind="wall",
            unit="x",
            better="higher",
            rel_tol=1.0,
        ),
        Metric("p50_latency_s", report.p50, kind="wall"),
        Metric("p99_latency_s", report.p99, kind="wall"),
        Metric(
            "failed_jobs",
            float(len(report.failed)),
            kind="count",
            unit="jobs",
        ),
    ]


@register(
    "service/artifact_cache",
    "service",
    repeats=2,
    jobs=6,
    workers=1,
)


def _service_artifact_cache() -> List[Metric]:
    """Deterministic cache accounting: one worker, six identical jobs.

    A single worker serialises the jobs, so exactly the first one pays
    the cold setup and the other five hit the cache — and a hit must be
    *bitwise* invisible in virtual time and physics digest.
    """
    from ..service import run_campaign

    report = run_campaign(_service_specs(6, 0), nworkers=1)
    if report.failed:
        raise RuntimeError(f"campaign failed: {report.failed[0].error}")
    digests = {r.digest for r in report.results}
    vtimes = {r.vtime_total for r in report.results}
    bitwise = len(digests) == 1 and len(vtimes) == 1
    return [
        Metric(
            "cache_hits",
            float(report.cache_hits),
            kind="count",
            unit="hits",
            better="higher",
        ),
        Metric(
            "cache_misses",
            float(report.cache_misses),
            kind="count",
            unit="misses",
        ),
        Metric(
            "hit_bitwise_identical",
            float(bitwise),
            kind="count",
            unit="bool",
            better="higher",
        ),
        Metric(
            "vtime_job_s",
            report.results[0].vtime_total,
            kind="virtual",
        ),
    ]


@register(
    "service/disk_cache",
    "service",
    repeats=2,
    jobs=4,
    workers=1,
)
def _service_disk_cache() -> List[Metric]:
    """Restart determinism of the disk-spilled artifact cache.

    Two campaigns over the same spill directory with fresh services
    (cold, then warm = a simulated restart): the warm run's first job
    must hit from disk, and every warm result must be bitwise
    identical to the cold run — same digest, same virtual time.
    """
    import tempfile

    from ..service import run_campaign

    with tempfile.TemporaryDirectory(prefix="repro-bench-art-") as d:
        cold = run_campaign(_service_specs(2, 0), nworkers=1,
                            artifact_dir=d)
        warm = run_campaign(_service_specs(2, 0), nworkers=1,
                            artifact_dir=d)
    for report in (cold, warm):
        if report.failed:
            raise RuntimeError(
                f"campaign failed: {report.failed[0].error}"
            )
    bitwise = (
        {r.digest for r in cold.results + warm.results}
        == {cold.results[0].digest}
        and {r.vtime_total for r in cold.results + warm.results}
        == {cold.results[0].vtime_total}
    )
    return [
        Metric(
            "cold_misses",
            float(cold.cache_misses),
            kind="count",
            unit="misses",
        ),
        Metric(
            "warm_disk_hits",
            float(warm.cache_disk_hits),
            kind="count",
            unit="hits",
            better="higher",
        ),
        Metric(
            "warm_hits",
            float(warm.cache_hits),
            kind="count",
            unit="hits",
            better="higher",
        ),
        Metric(
            "restart_bitwise_identical",
            float(bitwise),
            kind="count",
            unit="bool",
            better="higher",
        ),
        Metric(
            "vtime_job_s",
            warm.results[0].vtime_total,
            kind="virtual",
        ),
    ]


@register(
    "service/timeout_retry",
    "service",
    repeats=1,
    jobs=3,
    workers=1,
)
def _service_timeout_retry() -> List[Metric]:
    """Deterministic timeout/retry accounting through the service.

    One hung job (30 s sleep, 0.2 s budget, 2 retries) batched with
    two clean jobs on a single worker: every attempt of the hung job
    is killed at its deadline, its batchmates are re-admitted free as
    collateral, and the exact retry/timeout/re-admission counts gate
    the policy — any drift means charged budgets or lost jobs.
    """
    from ..service import JobSpec, run_campaign

    sleeper = JobSpec(
        kind="cmtbone", name="hung", nranks=2,
        machine=VIRTUAL_MACHINE,
        timeout_seconds=0.2, max_retries=2,
        params={"n": 5, "nel": 8, "nsteps": 3, "sleep_s": 30.0},
    )
    report = run_campaign([sleeper] + _service_specs(2, 0), nworkers=1)
    hung, ok1, ok2 = report.results
    if not (hung.status == "failed" and hung.timed_out):
        raise RuntimeError(
            f"hung job must time out, got {hung.status}: {hung.error}"
        )
    if not (ok1.ok and ok2.ok):
        raise RuntimeError("collateral jobs must eventually finish")
    return [
        Metric(
            "hung_retries",
            float(hung.retries),
            kind="count",
            unit="retries",
        ),
        Metric(
            "attempt_timeouts",
            float(report.queue_stats["timeouts"]),
            kind="count",
            unit="timeouts",
        ),
        Metric(
            "readmissions",
            float(report.queue_stats["readmitted"]),
            kind="count",
            unit="jobs",
        ),
        Metric(
            "collateral_retries_charged",
            float(ok1.retries + ok2.retries),
            kind="count",
            unit="retries",
        ),
        Metric(
            "timeout_overhead_wall_s",
            report.wall_seconds,
            kind="wall",
        ),
    ]


# ---------------------------------------------------------------------
# vscale — virtual scale-out engine (sampled execution + LogGP model)
# ---------------------------------------------------------------------


def _vscale_engine(nranks: int, sample: int, **overrides):
    from ..core.config import CMTBoneConfig
    from ..vscale import VirtualScaleEngine

    cfg = CMTBoneConfig(
        n=8,
        local_shape=(3, 3, 2),
        nsteps=2,
        neq=3,
        work_mode="proxy",
        **overrides,
    )
    return VirtualScaleEngine(
        cfg, nranks=nranks, machine=_machine(), sample=sample
    )


@register("vscale/model_agreement", "vscale", repeats=2, nranks=16)
def _vscale_model_agreement() -> List[Metric]:
    """Modeled vs executed step-time agreement at P=16, all methods.

    The engine's validation contract: at rank counts small enough to
    execute, the vectorized timeline must reproduce the executed
    virtual clock within each method's documented tolerance.  The raw
    relative errors sit at float-rounding level and would flake under
    the comparator's relative gates, so the gated metrics are the
    pass/fail bools plus the (exactly deterministic) modeled times.
    """
    engine = _vscale_engine(16, 16)
    metrics: List[Metric] = []
    ok = 0
    for method in ("pairwise", "crystal", "allreduce"):
        agreement = engine.validate(method)
        ok += int(agreement.ok)
        metrics.append(
            Metric(
                f"{method}_agrees",
                float(agreement.ok),
                kind="count",
                unit="bool",
                better="higher",
            )
        )
        metrics.append(
            Metric(
                f"{method}_modeled_step_s",
                engine.model(method, nranks=16).step_seconds,
                kind="virtual",
            )
        )
    metrics.append(
        Metric(
            "methods_agreeing",
            float(ok),
            kind="count",
            unit="methods",
            better="higher",
        )
    )
    return metrics


@register(
    "vscale/scale_sweep", "vscale", repeats=2, nranks=65536, sample=16
)
def _vscale_scale_sweep() -> List[Metric]:
    """The headline run: 65536 virtual ranks, all three gs methods.

    Gates both the modeled virtual step times (deterministic) and the
    engine's own wall cost — the whole point of the vectorized
    timelines is that a 10^4-10^5-rank what-if study stays interactive
    (the acceptance bar is well under 60 s for the sweep).
    """
    t0 = time.perf_counter()
    engine = _vscale_engine(65536, 16)
    metrics = [
        Metric(
            f"{method}_step_s",
            engine.model(method).step_seconds,
            kind="virtual",
        )
        for method in ("pairwise", "crystal", "allreduce")
    ]
    wall = time.perf_counter() - t0
    metrics.append(Metric("sweep_wall_s", wall, kind="wall"))
    metrics.append(
        Metric(
            "under_60s",
            float(wall < 60.0),
            kind="count",
            unit="bool",
            better="higher",
        )
    )
    return metrics


@register("vscale/fig7_crossover", "vscale", repeats=2, nranks=256)
def _vscale_fig7_crossover() -> List[Metric]:
    """Fig. 7 at its native P=256: pairwise must beat the other two.

    The paper's result — the auto-tuner picks pairwise exchange for
    CMT-bone at 256 ranks, the allreduce method being "too expensive"
    — reproduced from the analytic model alone on the full Fig. 7
    processor grid.
    """
    from ..core.config import CMTBoneConfig
    from ..vscale import VirtualScaleEngine

    engine = VirtualScaleEngine(
        CMTBoneConfig.fig7(),
        nranks=256,
        machine=_machine(),
        sample=8,
    )
    times = {
        m: engine.model(m).step_seconds
        for m in ("pairwise", "crystal", "allreduce")
    }
    metrics = [
        Metric(f"{m}_step_s", t, kind="virtual")
        for m, t in sorted(times.items())
    ]
    metrics.append(
        Metric(
            "pairwise_wins",
            float(min(times, key=times.get) == "pairwise"),
            kind="count",
            unit="bool",
            better="higher",
        )
    )
    return metrics
