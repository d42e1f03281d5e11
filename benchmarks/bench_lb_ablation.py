"""Ablation — dynamic load balancing vs injected compute imbalance.

Sweeps the per-rank compute-load jitter (``compute_imbalance``) with
the load balancer off and on (``lb_mode="auto"``) and measures the
quantities the LB subsystem exists to move:

* the **measured cost imbalance** — max/mean of the per-step virtual
  cost over ranks in the final monitoring window (steady state, i.e.
  after the last rebalance when LB is on);
* the **MPI_Wait share** of MPI time — waiting ranks are the victims
  of imbalance, so shrinking the compute spread shrinks the
  MPI_Wait-dominated profile of the paper's Fig. 9;
* the **compute (non-MPI) spread** from the mpiP-style report.

The LB-off baseline runs ``lb_mode="manual"``: the cost monitor runs
(so the steady-state cost metric exists with the same meaning on both
sides) but never corrects, and adds zero communication.

Checked claims (the ISSUE acceptance criteria): at
``compute_imbalance=0.4`` on 8 ranks, enabling LB reduces both the
measured cost imbalance and the MPI_Wait share versus LB-off; and a
fault-free solver run with LB enabled produces bitwise-identical
physical fields to LB-off (compared keyed by global element id, since
LB changes which rank holds which element).
"""

import numpy as np
import pytest

from repro.analysis import op_share, render_table, summarize_compute
from repro.core import CMTBoneConfig
from repro.core.cmtbone import CMTBone
from repro.lb import RebalancePolicy
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.perfmodel import MachineModel
from repro.solver import CMTSolver, SolverConfig, uniform_state

NRANKS = 8
NSTEPS = 24


def _run(imbalance, lb_mode):
    config = CMTBoneConfig(
        n=8,
        local_shape=(2, 2, 2),
        proc_shape=(2, 2, 2),
        nsteps=NSTEPS,
        work_mode="proxy",
        gs_method="pairwise",
        monitor_every=4,
        compute_imbalance=imbalance,
        lb_mode=lb_mode,
        lb_threshold=1.05,
        lb_min_interval=4,
    )
    runtime = Runtime(
        nranks=NRANKS, machine=MachineModel.preset("compton")
    )
    results = runtime.run(lambda comm: CMTBone(comm, config).run())
    profile = runtime.job_profile()
    costs = [r.lb_window_cost for r in results]
    mean = sum(costs) / len(costs)
    return {
        "cost_imbalance": max(costs) / mean if mean else 0.0,
        "wait_share": op_share(profile, "MPI_Wait"),
        "compute_spread": summarize_compute(profile)[3],
        "rebalances": max(r.lb_rebalances for r in results),
        "makespan": max(s.total for s in runtime.clock_stats()),
    }


def _sweep(imbalances, report, title):
    rows, metrics = [], {}
    for imb in imbalances:
        for mode in ("manual", "auto"):
            m = _run(imb, mode)
            metrics[(imb, mode)] = m
            rows.append((
                imb,
                "off" if mode == "manual" else "auto",
                m["rebalances"],
                m["cost_imbalance"],
                m["compute_spread"],
                100.0 * m["wait_share"],
                m["makespan"],
            ))
    report(
        f"{title}\n"
        f"({NRANKS} ranks, {NSTEPS} steps, proxy work, pairwise gs; "
        f"'off' = monitor only, 'auto' rebalances at threshold 1.05)\n"
        + render_table(
            ["imbalance", "lb", "rebal", "cost max/mean",
             "compute max/mean", "MPI_Wait %", "makespan (s)"],
            rows, floatfmt="{:.4g}",
        )
    )
    return metrics


# -- bitwise identity ------------------------------------------------------

MESH = BoxMesh(shape=(4, 4, 4), n=4)
PART = Partition(MESH, proc_shape=(2, 2, 2))
DT = 1e-3


def _solver_fields(lb_policy):
    """Final fields keyed by global element id (layout-independent)."""

    def main(comm):
        solver = CMTSolver(
            comm, PART,
            config=SolverConfig(
                gs_method="pairwise",
                compute_imbalance=0.4,
                lb=lb_policy,
            ),
        )
        state = uniform_state(PART.nel_local, MESH.n, vel=(0.2, 0.1, 0.0))
        state.u[0] += 1e-3 * np.sin(
            np.arange(state.u[0].size)
        ).reshape(state.u[0].shape)
        final = solver.run(state, nsteps=12, dt=DT)
        return solver.local_element_ids(), final.u

    runtime = Runtime(
        nranks=NRANKS, machine=MachineModel.preset("compton")
    )
    fields = {}
    for ids, u in runtime.run(main):
        for k, gid in enumerate(ids):
            fields[int(gid)] = u[:, k]
    return fields


@pytest.mark.slow
def test_lb_ablation_sweep(report):
    """Full imbalance sweep with LB off/on."""
    metrics = _sweep(
        (0.0, 0.2, 0.4, 0.6), report,
        "Ablation — dynamic load balancing vs injected compute imbalance",
    )
    # A balanced run never triggers a rebalance ...
    assert metrics[(0.0, "auto")]["rebalances"] == 0
    # ... and every imbalanced one improves both acceptance quantities.
    for imb in (0.2, 0.4, 0.6):
        off, on = metrics[(imb, "manual")], metrics[(imb, "auto")]
        assert on["rebalances"] >= 1
        assert on["cost_imbalance"] < off["cost_imbalance"]
        assert on["wait_share"] < off["wait_share"]


def test_lb_ablation_smoke(report):
    """The ISSUE acceptance point: imbalance 0.4, 8 ranks, LB off vs on."""
    metrics = _sweep(
        (0.4,), report,
        "LB-ablation smoke — compute_imbalance=0.4, LB off vs on",
    )
    off, on = metrics[(0.4, "manual")], metrics[(0.4, "auto")]
    assert on["rebalances"] >= 1
    assert on["cost_imbalance"] < off["cost_imbalance"]
    assert on["wait_share"] < off["wait_share"]
    assert on["compute_spread"] < off["compute_spread"]


def test_lb_bitwise_identity(report):
    """Fault-free LB-on fields are bitwise identical to LB-off."""
    off = _solver_fields(None)
    on = _solver_fields(RebalancePolicy(mode="auto", threshold=1.05))
    assert off.keys() == on.keys()
    identical = all(
        np.array_equal(off[gid], on[gid]) for gid in off
    )
    report(
        "LB bitwise identity — 8 ranks, imbalance 0.4, 12 steps: "
        f"{len(off)} elements compared by global id, "
        f"identical={identical}"
    )
    assert identical
