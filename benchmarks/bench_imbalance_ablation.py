"""Ablation — load imbalance drives the MPI_Wait story of Figs. 8-9.

The paper reads its Fig. 9 MPI_Wait dominance as "the need for better
load balancing in the application".  This ablation makes that causal
link explicit: sweep the injected compute-load jitter from 0 to 40%
and watch (a) the MPI_Wait share of total MPI time and (b) the
per-rank MPI-fraction spread grow monotonically with imbalance.
"""

import numpy as np

from repro.analysis import render_table, summarize_fractions, wait_dominance
from repro.core import CMTBoneConfig, run_cmtbone
from repro.mpi import Runtime
from repro.perfmodel import MachineModel

IMBALANCES = [0.0, 0.1, 0.2, 0.4]


def _run(imbalance):
    config = CMTBoneConfig(
        n=8,
        local_shape=(2, 2, 2),
        proc_shape=(2, 2, 2),
        nsteps=6,
        work_mode="proxy",
        gs_method="pairwise",
        compute_imbalance=imbalance,
    )
    runtime = Runtime(nranks=8, machine=MachineModel.preset("compton"))
    runtime.run(run_cmtbone, args=(config,))
    return runtime.job_profile()


def test_imbalance_ablation(report):
    rows = []
    wait_shares = []
    spreads = []
    for imb in IMBALANCES:
        profile = _run(imb)
        op, share = wait_dominance(profile)
        mean, mn, mx, ratio = summarize_fractions(profile)
        wait_time = profile.by_op().get("MPI_Wait", 0.0)
        rows.append((imb, op, share, wait_time, mean, mx - mn))
        wait_shares.append(share if op == "MPI_Wait"
                           else profile.by_op().get("MPI_Wait", 0.0)
                           / max(sum(profile.by_op().values()), 1e-30))
        spreads.append(mx - mn)
    report(
        "Ablation — MPI_Wait share and per-rank MPI%% spread vs "
        "injected load imbalance (P=8)\n"
        + render_table(
            ["imbalance", "top MPI op", "top share", "MPI_Wait (s)",
             "MPI % mean", "MPI % spread"],
            rows, floatfmt="{:.3g}",
        )
    )

    # Wait share and spread grow monotonically with imbalance.
    assert all(np.diff(wait_shares) > -1e-9)
    assert wait_shares[-1] > wait_shares[0] + 0.1
    assert spreads[-1] > spreads[0]
    # At strong imbalance, MPI_Wait dominates (the Fig. 9 observation).
    profile = _run(0.4)
    op, share = wait_dominance(profile)
    assert op == "MPI_Wait" and share > 0.4
