"""Ablation — checkpoint cadence vs campaign time under injected faults.

Sweeps ``--checkpoint-every`` for a fixed fault schedule and measures
the total campaign virtual time (attempt makespans + restart overhead)
through the crash-recovery loop.  Checkpointing too often pays I/O
every few steps; too rarely pays replayed lost work after every crash
— the classic U-shaped trade-off whose analytic minimum is the
Young/Daly interval ``sqrt(2 * C * MTBF)``.

The machine's I/O cost is tuned so one checkpoint costs about half a
timestep and the injected crash rate gives an MTBF of ~12 steps, which
puts the Young/Daly optimum near 3.5 steps — well inside the swept
range, so both the U-shape and the optimum's location are checkable.

Checked claims: campaign time is minimized at a cadence within about a
factor of two of the Young/Daly estimate, and both extremes — a
checkpoint every step, and no checkpointing at all — are strictly
worse than the optimum.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis import render_table
from repro.faults import CrashEvent, FaultPlan
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.perfmodel import MachineModel
from repro.solver import (
    CMTSolver,
    SolverConfig,
    run_with_recovery,
    uniform_state,
)

MESH = BoxMesh(shape=(4, 2, 2), n=4)
PART = Partition(MESH, proc_shape=(2, 1, 1))
DT = 1e-3
NSTEPS = 36
#: Crash schedule: three failures, deliberately misaligned with every
#: swept cadence so no cadence gets a free perfectly-timed checkpoint.
CRASH_STEPS = (8, 21, 31)


def _initial_state():
    st = uniform_state(PART.nel_local, MESH.n, vel=(0.2, 0.0, 0.0))
    st.u[0] += 1e-3 * np.sin(
        np.arange(st.u[0].size)
    ).reshape(st.u[0].shape)
    return st


def _setup(comm):
    solver = CMTSolver(
        comm, PART, config=SolverConfig(gs_method="pairwise")
    )
    return solver, _initial_state()


def _step_seconds(machine):
    """Fault-free per-step virtual time on this machine."""

    def main(comm):
        solver, state = _setup(comm)
        solver.run(state, nsteps=4, dt=DT)

    rt = Runtime(nranks=2, machine=machine)
    rt.run(main)
    return max(s.total for s in rt.clock_stats()) / 4


def _fault_machine():
    """Compton with I/O tuned so a checkpoint costs ~half a step."""
    base = MachineModel.preset("compton")
    t_step = _step_seconds(base)
    return dataclasses.replace(
        base,
        io_latency=0.5 * t_step,
        restart_latency=2.0 * t_step,
    ), t_step


def _campaign_time(machine, cadence, tmp_path):
    plan = FaultPlan(crashes=tuple(
        CrashEvent(rank=i % 2, step=s) for i, s in enumerate(CRASH_STEPS)
    ))
    _, rep = run_with_recovery(
        _setup, nranks=2, nsteps=NSTEPS, dt=DT,
        checkpoint_every=cadence,
        checkpoint_dir=(tmp_path / f"every{cadence}") if cadence else None,
        fault_plan=plan, machine=machine,
    )
    return rep


def _young_daly_steps(machine, t_step):
    ckpt_bytes = _initial_state().u.nbytes
    c = machine.checkpoint_seconds(ckpt_bytes)
    mtbf = NSTEPS / len(CRASH_STEPS) * t_step
    return MachineModel.young_daly_interval(c, mtbf) / t_step


def _sweep(cadences, tmp_path, report, title):
    machine, t_step = _fault_machine()
    tau_steps = _young_daly_steps(machine, t_step)
    rows, totals = [], {}
    for k in cadences:
        rep = _campaign_time(machine, k, tmp_path)
        totals[k] = rep.total_virtual_seconds
        rows.append((
            k if k else "never",
            len(rep.attempts),
            rep.steps_lost,
            rep.lost_work_seconds,
            rep.restart_overhead_seconds,
            rep.total_virtual_seconds,
        ))
    best = min(totals, key=totals.get)
    report(
        f"{title}\n"
        f"({NSTEPS} steps, 2 ranks, crashes at steps {CRASH_STEPS}; "
        f"Young/Daly optimum ~= {tau_steps:.2f} steps, "
        f"best swept cadence = {best if best else 'never'})\n"
        + render_table(
            ["ckpt every", "attempts", "steps lost", "lost work (s)",
             "restart ovh (s)", "campaign (s)"],
            rows, floatfmt="{:.4g}",
        )
    )
    return totals, best, tau_steps


@pytest.mark.slow
def test_fault_ablation_sweep(report, tmp_path):
    """Full cadence sweep: U-shape with the minimum near Young/Daly."""
    totals, best, tau_steps = _sweep(
        (1, 2, 3, 4, 6, 9, 12, 18, 0), tmp_path, report,
        "Ablation — checkpoint cadence vs campaign virtual time",
    )
    # The minimum sits within a factor of two of the analytic optimum
    # (discrete cadences and a 3-sample crash schedule blur it a bit).
    assert tau_steps / 2 <= best <= tau_steps * 2
    # Both extremes of the U are strictly worse than the optimum.
    assert totals[1] > totals[best]
    assert totals[0] > totals[best]
    # Every crashed campaign beats none at all only in real time, not
    # virtual: a fault-free reference must undercut them all.
    machine, _ = _fault_machine()
    _, clean = run_with_recovery(
        _setup, nranks=2, nsteps=NSTEPS, dt=DT, machine=machine,
    )
    assert clean.total_virtual_seconds < min(totals.values())


def test_fault_ablation_smoke(report, tmp_path):
    """Tiny 3-point sweep: the CI acceptance check."""
    totals, best, tau_steps = _sweep(
        (1, 4, 0), tmp_path, report,
        "Fault-ablation smoke — checkpoint cadence vs campaign time",
    )
    # Near-optimal cadence (4 ~ Young/Daly here) beats both extremes.
    assert math.isclose(tau_steps, 4, rel_tol=0.75)
    assert totals[4] < totals[1]
    assert totals[4] < totals[0]
