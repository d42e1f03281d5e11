"""Mini-app validation: does CMT-bone represent CMT-nek?

Section II: "it is important to treat [mini-apps] as guidelines and
not targets ... A verification and validation methodology for
identifying and understanding this relationship is described in [8]
and [9]"; and Section VII: "A key focus in the near term will be
extensive validation of the relationship between CMT-bone and CMT-nek
on different architectures based on performance metrics."

This package implements that methodology for the reproduction: the DG
Euler solver (:mod:`repro.solver`) stands in for CMT-nek (it *is* the
conceptual model the mini-app abstracts), and CMT-bone is validated
against it.  Both run matched configurations (same N, elements/rank,
P, machine model) with the same phase taxonomy — ``derivative`` /
``surface`` / ``exchange`` / ``update`` — and their performance
signatures are compared on the metrics of the Barrett et al.
methodology: time-fraction breakdown, communication volume and
message sizes, and per-rank MPI fractions.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..analysis.callgraph import CallGraphProfiler
from ..analysis.mpip import summarize_fractions
from ..core.cmtbone import CMTBone
from ..core.config import CMTBoneConfig
from ..mpi import Runtime
from ..perfmodel import MachineModel
from ..solver import CMTSolver, SolverConfig, from_primitives

#: The shared phase taxonomy both applications are mapped onto.
PHASES = ("derivative", "surface", "exchange", "update", "other")

#: Mini-app region -> taxonomy phase.  The split-phase regions of the
#: overlapped schedule both map onto "exchange" so overlapped and
#: blocking runs are compared on the same taxonomy.
CMTBONE_PHASE_MAP = {
    "ax_": "derivative",
    "full2face_cmt": "surface",
    "gs_op_": "exchange",
    "gs_op_begin": "exchange",
    "gs_op_finish": "exchange",
    "add2s2": "update",
}


class AppSignature(NamedTuple):
    """One application's performance signature on a workload."""

    label: str
    phase_fractions: Dict[str, float]
    mpi_pct_mean: float
    mpi_pct_max: float
    total_message_bytes: int
    message_count: int

    @property
    def mean_message_bytes(self) -> float:
        if not self.message_count:
            return 0.0
        return self.total_message_bytes / self.message_count


def _fractions_from(
    stats_list, name_to_phase
) -> Dict[str, float]:
    totals: Dict[str, float] = {p: 0.0 for p in PHASES}
    grand = 0.0
    for stats in stats_list:
        for name, st in stats.items():
            t = st.self_time
            if t <= 0:
                continue
            phase = name_to_phase(name)
            if phase is None:
                continue
            totals[phase] += t
            grand += t
    if grand == 0:
        return dict.fromkeys(PHASES, 0.0)
    return {p: totals[p] / grand for p in PHASES}


def _message_stats(profile) -> Tuple[int, int]:
    total_bytes = 0
    count = 0
    for row in profile.aggregates():
        if row.op in ("MPI_Send", "MPI_Isend") and row.bytes_total > 0:
            total_bytes += row.bytes_total
            count += row.count
    return total_bytes, count


def cmtbone_signature(
    config: CMTBoneConfig,
    nranks: int,
    machine: Optional[MachineModel] = None,
    backend: str = "threads",
) -> AppSignature:
    """Run the mini-app on the workload and extract its signature.

    The signature is built entirely from virtual-time quantities, so it
    is identical whichever execution ``backend`` carries the ranks.
    """
    runtime = Runtime(
        nranks=nranks, machine=machine or MachineModel.preset("compton"),
        backend=backend,
    )
    results = runtime.run(lambda comm: CMTBone(comm, config).run())

    def to_phase(name: str):
        if name in CMTBONE_PHASE_MAP:
            return CMTBONE_PHASE_MAP[name]
        if name in ("cmt_timestep",):
            return None          # pure container, no self time
        return "other"           # setup, monitor

    fractions = _fractions_from(
        [r.profiler.stats for r in results], to_phase
    )
    profile = runtime.job_profile()
    mean_pct, _mn, mx, _ = summarize_fractions(profile)
    tb, mc = _message_stats(profile)
    return AppSignature(
        label="CMT-bone (mini-app)",
        phase_fractions=fractions,
        mpi_pct_mean=mean_pct,
        mpi_pct_max=mx,
        total_message_bytes=tb,
        message_count=mc,
    )


def solver_signature(
    config: CMTBoneConfig,
    nranks: int,
    machine: Optional[MachineModel] = None,
    backend: str = "threads",
) -> AppSignature:
    """Run the parent-application stand-in (real DG solver) matched.

    Matches the mini-app workload knob for knob: same partition, same
    N, same step count (each mini-app "RK stage" pipeline corresponds
    to one rhs evaluation; the solver's SSP-RK3 performs 3 per step,
    like the mini-app's ``rk_stages=3``).
    """
    partition = config.build_partition(nranks)

    def main(comm):
        solver = CMTSolver(
            comm, partition,
            config=SolverConfig(
                gs_method=config.gs_method or "pairwise",
                kernel_variant=config.kernel_variant,
                overlap=config.overlap,
            ),
        )
        prof = CallGraphProfiler(comm.clock, comm.rank)
        solver.profiler = prof
        rng = np.random.default_rng(7 + comm.rank)
        shape = (partition.nel_local,) + (partition.mesh.n,) * 3
        rho = 1.0 + 1e-3 * rng.standard_normal(shape)
        vel = np.zeros((3,) + shape)
        vel[0] = 0.1
        state = from_primitives(rho, vel, np.ones(shape))
        dt = solver.stable_dt(state)
        state = solver.run(state, nsteps=config.nsteps, dt=dt,
                           monitor_every=config.monitor_every)
        return prof

    runtime = Runtime(
        nranks=nranks, machine=machine or MachineModel.preset("compton"),
        backend=backend,
    )
    results = runtime.run(main)

    def to_phase(name: str):
        return name if name in PHASES else "other"

    fractions = _fractions_from(
        [prof.stats for prof in results], to_phase
    )
    profile = runtime.job_profile()
    mean_pct, _mn, mx, _ = summarize_fractions(profile)
    tb, mc = _message_stats(profile)
    return AppSignature(
        label="CMT-nek stand-in (DG solver)",
        phase_fractions=fractions,
        mpi_pct_mean=mean_pct,
        mpi_pct_max=mx,
        total_message_bytes=tb,
        message_count=mc,
    )
