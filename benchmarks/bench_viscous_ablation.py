"""Ablation — the Navier-Stokes branch's extra kernel load.

Eq. (1)'s flux is ``f(U, grad U)``: the viscous branch adds 12 more
gradient evaluations per rhs (velocity tensor + temperature), all
through the same O(N^4) derivative kernel.  This ablation compares the
Euler and Navier-Stokes rhs costs and confirms the paper's central
co-design fact gets *stronger* with more physics: the derivative
kernel's share of the step grows.

Checked claims: NS steps cost more than Euler steps; the derivative
phase's share of compute rises in the NS branch; physics stays exact
(freestream drift at machine epsilon in both).
"""

import numpy as np

from repro.analysis import render_table
from repro.analysis.callgraph import CallGraphProfiler
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import (
    CMTSolver,
    SolverConfig,
    ViscousModel,
    uniform_state,
)

MESH = BoxMesh(shape=(4, 2, 2), n=8)
PART = Partition(MESH, proc_shape=(2, 1, 1))


def _run(viscous):
    def main(comm):
        solver = CMTSolver(
            comm, PART,
            config=SolverConfig(
                gs_method="pairwise",
                viscosity=ViscousModel(mu=1e-3) if viscous else None,
            ),
        )
        prof = CallGraphProfiler(comm.clock)
        solver.profiler = prof
        st = uniform_state(PART.nel_local, MESH.n, vel=(0.2, 0.1, 0.0))
        u0 = st.u.copy()
        t0 = comm.clock.now
        st = solver.run(st, nsteps=3, dt=2e-4)
        dt_step = (comm.clock.now - t0) / 3.0
        drift = float(np.max(np.abs(st.u - u0)))
        deriv = prof.stats["derivative"].self_time
        total = sum(s.self_time for s in prof.stats.values())
        return dt_step, drift, deriv / total

    res = Runtime(nranks=2).run(main)
    return max(r[0] for r in res), max(r[1] for r in res), res[0][2]


def test_viscous_ablation(report):
    t_euler, drift_e, deriv_e = _run(False)
    t_ns, drift_ns, deriv_ns = _run(True)
    report(
        "Ablation — Euler vs Navier-Stokes rhs cost "
        f"(N={MESH.n}, {MESH.nelgt} elements, 2 ranks)\n"
        + render_table(
            ["equations", "step time (s)", "derivative share",
             "freestream drift"],
            [
                ("Euler", t_euler, deriv_e, drift_e),
                ("Navier-Stokes", t_ns, deriv_ns, drift_ns),
            ],
            floatfmt="{:.4g}",
        )
        + "\nThe viscous branch adds 12 gradient evaluations per rhs; "
        "the O(N^4) kernel's dominance grows\nwith physics fidelity — "
        "the co-design signal only strengthens beyond the mini-app "
        "snapshot."
    )
    assert t_ns > t_euler
    assert deriv_ns > deriv_e
    assert drift_e < 1e-11 and drift_ns < 1e-11
