#!/usr/bin/env python3
"""Quickstart: run the CMT-bone mini-app on 8 simulated ranks.

This reproduces, at desktop scale, the full mini-app lifecycle from
the paper: gather-scatter setup with exchange-method auto-tuning, the
timestep pipeline (derivative kernel -> full2face -> gs exchange ->
update), and both profiling views (gprof-style compute regions and
mpiP-style MPI statistics).

Run:  python examples/quickstart.py
"""

from repro.analysis import (
    merge_timelines,
    mpi_fraction_report,
    render_gantt,
    top_calls_report,
)
from repro.core import CMTBoneConfig, cmtbone_profile_report, dominant_region
from repro.core.cmtbone import CMTBone
from repro.gs import timing_table
from repro.mpi import Runtime
from repro.perfmodel import MachineModel


def main() -> None:
    # A small, fully periodic box: 8 ranks as a 2x2x2 grid, each with a
    # 2x2x2 brick of N=8 elements (polynomial order 7).
    config = CMTBoneConfig(
        n=8,
        local_shape=(2, 2, 2),
        proc_shape=(2, 2, 2),
        nsteps=5,
        work_mode="real",          # actually run the numpy kernels
        compute_imbalance=0.1,     # a touch of realism for MPI_Wait
    )
    print("=== CMT-bone quickstart: 8 ranks on the 'compton' model ===\n")
    print(config.build_partition(8).describe(), "\n")

    def app_main(comm):
        app = CMTBone(comm, config)
        result = app.run()
        return result, app.profiler.intervals

    runtime = Runtime(nranks=8, machine=MachineModel.preset("compton"))
    pairs = runtime.run(app_main)
    results = [r for r, _ in pairs]
    timelines = [t for _, t in pairs]

    r0 = results[0]
    print("--- gather-scatter auto-tune (setup phase) ---")
    print(timing_table(r0.autotune))
    print(f"\nchosen exchange method: {r0.chosen_method}\n")

    print("--- compute profile (gprof-style, merged over ranks) ---")
    print(cmtbone_profile_report(results))
    print(f"\nhot spot: {dominant_region(results)} "
          "(the paper's Fig. 4 result: derivative kernel dominates)\n")

    profile = runtime.job_profile()
    print("--- MPI profile (mpiP-style) ---")
    print(top_calls_report(profile, 10))
    print()
    print(mpi_fraction_report(profile))

    print("\n--- execution timeline (last stretch of the run) ---")
    intervals = merge_timelines(timelines)
    t_hi = max(iv.t1 for iv in intervals)
    print(render_gantt(
        intervals, width=68, t_range=(0.9 * t_hi, t_hi)
    ))


if __name__ == "__main__":
    main()
