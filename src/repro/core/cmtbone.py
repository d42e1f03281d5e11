"""CMT-bone — the mini-app itself.

"The current version of CMT-bone abstracts CMT-nek behavior as
matrix-multiplication and nearest neighbor surface data exchanges to
represent the flux divergence term and the numerical flux term
respectively" (Section IV).  Accordingly a CMT-bone timestep is *not*
the physics solver (that lives in :mod:`repro.solver`): per RK stage it

1. runs the derivative kernel over all ``neq`` synthetic fields
   (``ax_`` in Fig. 4's call graph),
2. extracts surface data (``full2face_cmt``),
3. exchanges it with nearest neighbours through the gather-scatter
   library (``gs_op_``), and
4. applies a pointwise axpy update (``add2s2``),

with periodic vector reductions (``MPI_Allreduce``) as the monitor.
Setup performs ``gs_setup`` discovery and the three-way exchange-method
auto-tune exactly as the paper describes.

Every phase is bracketed once, by the gprof-style region profiler
(Fig. 4), which also records the phase's bar in the per-rank Gantt
chart; all communication flows through the mpiP-style profiler
(Figs. 8-10).  Compute is charged to the virtual clock via the
machine-model roofline; in ``work_mode="real"`` the numpy kernels also
actually execute on the synthetic fields so the data dependencies are
genuine.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..analysis.callgraph import CallGraphProfiler
from ..gs import (
    MethodTiming,
    choose_method,
    gs_op,
    gs_op_begin,
    gs_op_finish,
    gs_op_many,
    gs_setup,
)
from ..gs.pairwise import TAG_PAIRWISE
from ..kernels import Workspace, counters, derivative_matrix
from ..kernels import derivatives as dkernels
from ..kernels.workspace import as_elements, field_blocks
from ..mesh import Partition, dg_face_numbering
from ..mpi import MAX, SUM, Comm
from ..perfmodel import load_factor
from ..solver.surface import full2face_flops, full2face_multi
from .config import CMTBoneConfig

#: Region names mirror the Fortran routine names in Fig. 4.
R_SETUP = "gs_setup"
R_STEP = "cmt_timestep"
R_AX = "ax_"                 # derivative computation (flux divergence)
R_FULL2FACE = "full2face_cmt"
R_GSOP = "gs_op_"
R_GSOP_BEGIN = "gs_op_begin"   # split-phase post (overlap schedule)
R_GSOP_FINISH = "gs_op_finish" # split-phase wait (overlap schedule)
R_INFLIGHT = "gs_inflight"     # timeline span: messages under compute
R_UPDATE = "add2s2"          # nek's axpy
R_MONITOR = "monitor"
R_LB = "lb_rebalance"        # dynamic load balancing (migration + rebuild)

#: Entries per block of the pointwise update: block + scratch (2 x
#: 256 KiB) stay in L2 across its three passes.
UPDATE_BLOCK = 32768


class CMTBoneResult(NamedTuple):
    """Everything a CMT-bone run reports back."""

    rank: int
    config: CMTBoneConfig
    autotune: Optional[Dict[str, MethodTiming]]
    chosen_method: str
    profiler: CallGraphProfiler
    setup_stats: dict
    vtime_total: float
    vtime_comm: float
    monitor_values: List[float]
    #: Communication hidden under compute by the overlapped schedule
    #: (0.0 for blocking runs; never part of ``vtime_total``).
    vtime_hidden_comm: float = 0.0
    #: Rebalances committed by the load balancer (0 when LB is off).
    lb_rebalances: int = 0
    #: Final local element count (differs from the brick's after LB).
    final_nel: int = 0
    #: Per-step compute cost of the *final* measurement window — the
    #: steady-state cost after the last rebalance (whole run when no
    #: rebalance happened; 0.0 with LB off).
    lb_window_cost: float = 0.0
    #: Load-balancer summary text ("" with LB off).
    lb_summary: str = ""


class CMTBone:
    """One rank's CMT-bone instance (construct inside the SPMD main)."""

    def __init__(
        self,
        comm: Comm,
        config: Optional[CMTBoneConfig] = None,
        setup_artifact=None,
        setup_sink=None,
    ):
        self.comm = comm
        self.config = config or CMTBoneConfig()
        self.partition: Partition = self.config.build_partition(comm.size)
        self.n = self.config.n
        self.nel = self.partition.nel_local
        self.neq = self.config.neq
        self.dmat = np.asarray(derivative_matrix(self.n))
        #: Call graph of every region, and a Gantt bar per phase
        #: (:func:`repro.analysis.render_gantt`).
        self.profiler = CallGraphProfiler(comm.clock, comm.rank)
        self.autotune: Optional[Dict[str, MethodTiming]] = None
        self.monitor_values: List[float] = []

        if setup_artifact is not None:
            # A cached post-setup snapshot replaces the whole setup
            # region — handle, method choice, clock and profiler state
            # (see :class:`repro.service.artifacts.SetupArtifact`).
            setup_artifact.apply(self, comm)
        else:
            with self.profiler.region(R_SETUP):
                gids = dg_face_numbering(self.partition, comm.rank)
                self.handle = gs_setup(gids, comm, site=R_SETUP)
                if self.config.gs_method is not None:
                    self.handle.method = self.config.gs_method
                elif comm.size > 1:
                    self.autotune = choose_method(
                        self.handle, trials=self.config.autotune_trials
                    )
                else:
                    self.handle.method = "pairwise"
            if setup_sink is not None:
                setup_sink(self, comm)

        rng = np.random.default_rng(self.config.seed + comm.rank)
        #: Synthetic conserved fields: (neq, nel, N, N, N).
        self.u = rng.standard_normal(
            (self.neq, self.nel, self.n, self.n, self.n)
        )
        self._faces = np.zeros(
            (self.neq, self.nel, 6, self.n, self.n)
        )
        self._machine = comm.machine
        #: Reusable scratch for the derivative/update hot phases: the
        #: gradient results are thrown away every stage, so recycling
        #: their buffers removes 3 x neq large allocations per stage.
        self._work = Workspace()
        # Deterministic per-rank load factor: scales compute charges.
        self._load_factor = load_factor(
            comm.rank, self.config.compute_imbalance
        )
        #: Charged seconds by phase, until a rebalance changes ``nel``.
        self._prices: Dict[str, float] = {}
        #: Dynamic load balancer (None with ``lb_mode="off"``).
        self.lb = None
        policy = self.config.lb_policy()
        if policy is not None:
            from ..lb import ElementAssignment, LoadBalancer

            self.lb = LoadBalancer(
                comm,
                ElementAssignment.from_partition(self.partition),
                policy,
            )

    # -- phases -------------------------------------------------------------

    def _charge(self, phase: str, price) -> None:
        """Charge ``price()`` seconds of compute to ``phase``: a function
        of (n, nel, neq) alone, so evaluated once per ``nel``."""
        seconds = self._prices.get(phase)
        if seconds is None:
            seconds = self._prices[phase] = price() * self._load_factor
        self.comm.compute(seconds=seconds)

    def _derivative_phase(self) -> None:
        """The ``ax_`` hot spot: one kernel ``grad`` per block of fields."""
        cfg = self.config
        with self.profiler.phase(R_AX):
            if cfg.work_mode == "real":
                for b in field_blocks(self.u):
                    block = as_elements(self.u[b])
                    dkernels.grad(
                        block, self.dmat, variant=cfg.kernel_variant,
                        out=dkernels.grad_workspace(self._work, block),
                    )
            self._charge(R_AX, lambda: self.neq * counters.roofline_seconds(
                self.n, self.nel, self._machine, variant=cfg.kernel_variant
            ))

    def _surface_phase(self) -> None:
        """``full2face_cmt``: build the surface arrays."""
        with self.profiler.phase(R_FULL2FACE):
            if self.config.work_mode == "real":
                full2face_multi(self.u, out=self._faces)
            # In proxy mode the face buffers keep their previous (live)
            # contents; the exchange still moves real arrays.
            self._charge(R_FULL2FACE, lambda: self._machine.compute_seconds(
                flops=full2face_flops(self.n, self.nel, self.neq),
                mem_bytes=16.0 * self.neq * self.nel * 6 * self.n**2,
            ))

    def _exchange_phase(self) -> None:
        """``gs_op_``: nearest-neighbour exchange of the face traces."""
        nfields = self.config.exchange_fields or self.neq
        with self.profiler.phase(R_GSOP):
            if self.config.pack_fields:
                fields = [
                    self._faces[c % self.neq] for c in range(nfields)
                ]
                gs_op_many(
                    self.handle, fields, op=SUM, site=R_GSOP, out=fields
                )
                return
            # Field c is buffer c % neq: a pass over the buffers per neq
            # fields.  Passes after the first only add traffic: not kept.
            for first in range(0, nfields, self.neq):
                faces = self._faces[:nfields - first]
                for b in field_blocks(faces):
                    gs_op(
                        self.handle, faces[b], op=SUM, site=R_GSOP,
                        out=None if first else faces[b],
                    )

    def _exchange_begin_phase(self) -> list:
        """Split-phase post: ``gs_op_begin`` for every exchanged field.

        The face buffers are complete after ``full2face_cmt``, so every
        field's condense is snapshotted and its messages posted here;
        the update phase then runs while they are in flight.  With
        ``exchange_fields > neq`` the extra proxy exchanges reuse the
        *pre-stage* buffer contents (the blocking loop re-exchanges the
        just-combined buffers sequentially) — acceptable for the
        calibration knob, whose role is traffic volume, not values.
        """
        nfields = self.config.exchange_fields or self.neq
        with self.profiler.phase(R_GSOP_BEGIN):
            exchanges = [
                gs_op_begin(
                    self.handle, self._faces[c % self.neq], op=SUM,
                    site=R_GSOP, tag=TAG_PAIRWISE + c,
                )
                for c in range(nfields)
            ]
        self._inflight_t0 = self.profiler.open_span()
        return exchanges

    def _exchange_finish_phase(self, exchanges: list) -> None:
        """Split-phase wait: fold whatever communication is still exposed."""
        with self.profiler.phase(R_GSOP_FINISH):
            for c, exchange in enumerate(exchanges):
                keep = self._faces[c] if c < self.neq else None
                gs_op_finish(exchange, out=keep)
        self.profiler.close_span(R_INFLIGHT, self._inflight_t0)

    def _update_phase(self) -> None:
        """``add2s2``-style pointwise RK update."""
        with self.profiler.phase(R_UPDATE):
            if self.config.work_mode == "real":
                u = self.u.reshape(-1)  # a view: u is C-contiguous
                scratch = self._work.buffer((UPDATE_BLOCK,), key="upd:block")
                for i in range(0, u.size, UPDATE_BLOCK):
                    b = u[i:i + UPDATE_BLOCK]
                    t = scratch[:b.size]
                    b *= 0.75
                    np.multiply(b, 0.25, out=t)
                    b += t
            npts = self.neq * self.nel * self.n**3
            self._charge(R_UPDATE, lambda: self._machine.compute_seconds(
                flops=2.0 * npts, mem_bytes=24.0 * npts
            ))

    def _monitor_phase(self) -> None:
        """Vector reduction: the residual/CFL allreduce."""
        with self.profiler.phase(R_MONITOR):
            if self.config.work_mode == "real":
                # max|x| without an |x| temporary (abs: never -0.0).
                faces = self._faces
                local = float(np.maximum(abs(faces.max()), abs(faces.min())))
            else:
                local = float(self.comm.rank)
            self.monitor_values.append(
                self.comm.allreduce(local, op=MAX, site=R_MONITOR)
            )

    # -- dynamic load balancing ----------------------------------------------

    def _maybe_rebalance(self, istep: int) -> None:
        """Policy check + live migration between timesteps (collective)."""
        new = self.lb.propose(istep)
        if new is None:
            return
        from ..lb import SITE_LB_REBUILD, migrate_elements

        with self.profiler.phase(R_LB):
            old_ids = self.lb.assignment.element_ids_of(self.comm.rank)
            out, stats = migrate_elements(
                self.comm, old_ids, new,
                [("u", self.u, 1), ("faces", self._faces, 1)],
            )
            self.u = out["u"]
            self._faces = out["faces"]
            self.nel = new.nel_of(self.comm.rank)
            self._work.clear()  # local element count (and shapes) changed
            self._prices.clear()
            method = self.handle.method
            gids = dg_face_numbering(new, self.comm.rank)
            self.handle = gs_setup(gids, self.comm, site=SITE_LB_REBUILD)
            self.handle.method = method
        self.lb.commit(new, istep, stats=stats)

    # -- driver ---------------------------------------------------------------

    def timestep(self) -> None:
        """One explicit step: ``rk_stages`` x (ax, full2face, gs, update).

        Under ``config.overlap`` the exchange is split: posted right
        after ``full2face_cmt`` and finished after ``add2s2``, whose
        pointwise compute (which touches only the volume fields, never
        the in-flight face buffers) hides the message flight time.
        ``pack_fields`` has no split-phase form and takes precedence.
        """
        overlap = self.config.overlap and not self.config.pack_fields
        with self.profiler.region(R_STEP):
            for _stage in range(self.config.rk_stages):
                self._derivative_phase()
                self._surface_phase()
                if overlap:
                    exchanges = self._exchange_begin_phase()
                    self._update_phase()
                    self._exchange_finish_phase(exchanges)
                else:
                    self._exchange_phase()
                    self._update_phase()

    def run(self, nsteps: Optional[int] = None) -> CMTBoneResult:
        """Run the configured number of steps and collect results."""
        nsteps = self.config.nsteps if nsteps is None else nsteps
        for istep in range(nsteps):
            if self.lb is not None:
                self.lb.monitor.begin_step()
            self.timestep()
            if self.lb is not None:
                self.lb.monitor.end_step(nel=self.nel)
            me = self.config.monitor_every
            if me and (istep + 1) % me == 0:
                self._monitor_phase()
            if self.lb is not None:
                self._maybe_rebalance(istep)
        clock = self.comm.clock
        return CMTBoneResult(
            rank=self.comm.rank,
            config=self.config,
            autotune=self.autotune,
            chosen_method=self.handle.method or "pairwise",
            profiler=self.profiler,
            setup_stats=dict(self.handle.setup_stats),
            vtime_total=clock.now,
            vtime_comm=clock.comm_time,
            monitor_values=list(self.monitor_values),
            vtime_hidden_comm=clock.hidden_comm_time,
            lb_rebalances=self.lb.rebalances if self.lb else 0,
            final_nel=self.nel,
            lb_window_cost=(
                self.lb.monitor.window_cost(self.comm.rank).volume_seconds
                / max(self.lb.monitor.window_steps, 1)
                if self.lb else 0.0
            ),
            lb_summary=self.lb.describe() if self.lb else "",
        )


def run_cmtbone(comm: Comm, config: Optional[CMTBoneConfig] = None
                ) -> CMTBoneResult:
    """SPMD entry point: ``Runtime(nranks=P).run(run_cmtbone, args=(cfg,))``."""
    return CMTBone(comm, config).run()


def launch_cmtbone(
    config: Optional[CMTBoneConfig] = None,
    nranks: int = 8,
    machine=None,
    backend="threads",
):
    """Build a Runtime on the chosen execution backend and run CMT-bone.

    Convenience wrapper used by the CLI and the bench registry:
    returns ``(per_rank_results, runtime)`` so callers can reach both
    the :class:`CMTBoneResult` list and the post-run reporting
    (``clock_stats``/``job_profile``).  With ``backend="procs"`` the ranks run
    as forked OS processes and real kernel work executes in parallel
    across cores; virtual-time results are identical either way (see
    ``docs/backends.md``).
    """
    from ..mpi import Runtime

    cfg = config if config is not None else CMTBoneConfig()
    rt = Runtime(nranks=nranks, machine=machine, backend=backend)
    return rt.run(run_cmtbone, args=(cfg,)), rt
