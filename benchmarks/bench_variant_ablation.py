"""Ablation — end-to-end impact of the kernel variant on the mini-app.

Section V studies the derivative kernel in isolation; this ablation
closes the loop the paper implies: how much does the loop-fusion
choice change a whole CMT-bone timestep?  Since the derivative kernel
is ~half the step (Fig. 4), Amdahl caps the app-level win well below
the kernel-level 2.31x.

Checked claims: the fused app-level step is faster than the basic one
(modelled), and the speedup is smaller than the best kernel-level
speedup — the "mini-apps are guidelines, not optimization targets"
point of Section II.
"""


from repro.analysis import render_table
from repro.core import CMTBoneConfig, run_cmtbone
from repro.kernels import counters
from repro.mpi import Runtime
from repro.perfmodel import MachineModel


def _step_time(variant):
    config = CMTBoneConfig(
        n=10,
        local_shape=(2, 2, 2),
        proc_shape=(2, 2, 2),
        nsteps=4,
        work_mode="proxy",
        gs_method="pairwise",
        kernel_variant=variant,
    )
    runtime = Runtime(nranks=8, machine=MachineModel.preset("opteron6378"))
    results = runtime.run(run_cmtbone, args=(config,))
    return max(r.vtime_total for r in results) / config.nsteps


def test_variant_ablation(report):
    t_fused = _step_time("fused")
    t_basic = _step_time("basic")
    app_speedup = t_basic / t_fused
    kernel_speedups = {
        d: counters.speedup(d, 10, 8) for d in "rst"
    }
    best_kernel = max(kernel_speedups.values())
    report(
        "Ablation — app-level impact of the kernel variant "
        "(CMT-bone step, 8 ranks, N=10)\n"
        + render_table(
            ["variant", "step time (s)"],
            [("basic", t_basic), ("fused", t_fused)],
            floatfmt="{:.4g}",
        )
        + f"\napp-level speedup: {app_speedup:.2f}x   "
        f"best kernel-level speedup: {best_kernel:.2f}x (Amdahl gap)"
    )
    assert t_fused < t_basic
    assert 1.0 < app_speedup < best_kernel
