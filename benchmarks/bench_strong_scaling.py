"""Ablation — strong scaling of the CMT-bone timestep.

The Nek lineage's claim to fame is scalability ("demonstrated strong
scaling to over a million MPI ranks", Section III-A).  This benchmark
strong-scales a fixed global problem across the simulated Compton and
reports the classic table: step time, speedup, parallel efficiency,
and the communication share that erodes it.

Checked claims: speedup is monotone in P; efficiency at P=32 stays
above 50% for this surface-to-volume ratio; the communication share
grows monotonically with P.
"""


from repro.analysis import render_table
from repro.core import CMTBoneConfig, run_cmtbone
from repro.mesh import factor3
from repro.mpi import Runtime
from repro.perfmodel import MachineModel

#: Fixed global element grid (divisible by every tested P's factoring).
GLOBAL = (8, 8, 4)
PS = [1, 2, 4, 8, 16, 32]
N = 8


def _run(p):
    proc = factor3(p)
    local = tuple(g // q for g, q in zip(GLOBAL, proc))
    config = CMTBoneConfig(
        n=N,
        local_shape=local,
        proc_shape=proc,
        nsteps=3,
        work_mode="proxy",
        gs_method="pairwise",
        monitor_every=1,
    )
    runtime = Runtime(nranks=p, machine=MachineModel.preset("compton"))
    results = runtime.run(run_cmtbone, args=(config,))
    t_step = max(r.vtime_total for r in results) / config.nsteps
    comm_frac = max(
        r.vtime_comm / r.vtime_total for r in results
    )
    return t_step, comm_frac


def test_strong_scaling(report):
    rows = []
    times = {}
    fracs = {}
    for p in PS:
        t, f = _run(p)
        times[p] = t
        fracs[p] = f
        speedup = times[PS[0]] / t
        rows.append((p, t, speedup, speedup / p, f"{100 * f:.1f}%"))
    report(
        f"Ablation — strong scaling, fixed {GLOBAL} element grid, N={N} "
        "(Compton model)\n"
        + render_table(
            ["P", "step time (s)", "speedup", "efficiency", "comm share"],
            rows, floatfmt="{:.4g}",
        )
    )

    # Monotone speedup.
    for a, b in zip(PS, PS[1:]):
        assert times[b] < times[a]
    # Reasonable efficiency at the largest tested P.
    assert times[PS[0]] / times[32] / 32 > 0.5
    # Communication share grows as local work shrinks.
    assert fracs[32] > fracs[2]
