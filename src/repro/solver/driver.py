"""The parallel DG compressible-flow solver (conceptual CMT-nek).

Assembles every substrate into the timestep the paper's conceptual
model describes: per Runge-Kutta stage,

1. evaluate the Euler fluxes pointwise (volume work),
2. flux divergence via the derivative kernels (the ``ax_`` hot spot),
3. ``full2face`` extraction of state/flux/wavespeed traces,
4. nearest-neighbour exchange of the traces through the gather-scatter
   library (``gs_op`` over the DG face numbering),
5. numerical flux + SAT surface correction,
6. the RK update,

with source terms "set to zero" exactly as the current CMT-nek version
does (paper, Section IV).

The stage is organised as an explicit phase pipeline with two
schedules over the same phases:

* **blocking** (default): volume -> traces -> exchange -> correction,
  the textbook order above;
* **overlapped** (``SolverConfig(overlap=True)``): the elements are
  split into *boundary* (touching a cut face of the processor grid)
  and *interior* sets.  Boundary fluxes and traces are computed first
  and the gather-scatter exchange is *posted* (``gs_op_begin``); the
  interior volume work — the bulk of the stage — then runs while the
  messages are in flight; ``gs_op_finish`` waits only for whatever
  communication is still exposed.  Physics is bitwise identical to the
  blocking schedule (same elementwise kernels over subsets, same fold
  order), only the modelled timeline changes: communication hidden
  under interior compute is credited to the clock's
  ``hidden_comm_time`` instead of extending the step.

The solver runs on the simulated MPI: physics arrays are computed for
real in numpy; virtual time is charged per phase through the machine
model so the communication/computation balance matches the modelled
platform rather than Python's own speed.  Time integration is the
three-stage SSP-RK3 of :mod:`repro.solver.rk`, and every stage array
(fluxes, divergence, traces, RK vectors) is a pooled buffer of the
solver's one :class:`~repro.kernels.Workspace`.
"""

from __future__ import annotations

import math
import secrets
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..gs import choose_method, gs_op, gs_op_begin, gs_op_finish, gs_setup
from ..gs.autotune import SETUP_TRIALS
from ..gs.pairwise import TAG_PAIRWISE
from ..kernels import Workspace, derivative_matrix, gll_weights
from ..kernels import derivatives as dkernels
from ..kernels.dealias import dealias_flops, dealias_order, to_coarse, to_fine
from ..kernels.workspace import as_elements, field_blocks
from ..mesh import Partition, dg_face_numbering
from ..mpi import MAX, SUM, Comm
from ..perfmodel import load_factor
from .checkpoint import (
    assignment_from_info,
    checkpoint_namespace,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from .divergence import divergence_flops, flux_divergence_multi
from .eos import IdealGas
from .flux import euler_fluxes, flux_flops
from .numflux import lax_friedrichs, numflux_flops
from .rk import cfl_dt, step_ssprk3
from .state import ENERGY, MX, NEQ, RHO, FlowState
from .surface import (
    FACE_NORMAL_AXIS,
    FACE_NORMAL_SIGN,
    face2full_add,
    full2face_multi,
    full2face_flops,
    normal_flux_trace,
)
from .viscous import viscous_flops, viscous_fluxes

#: Profiler call-site label for the face exchange.
SITE_FACE_EXCHANGE = "cmt:face_exchange"

#: The gs op of each trace in a stage's trace stack: SUM on the state
#: and normal-flux traces, MAX on the wavespeed.
_TRACE_OPS = (SUM,) * (2 * NEQ) + (MAX,)


@dataclass
class SolverConfig:
    """Tunable knobs of :class:`CMTSolver`."""

    #: "fused"/"basic"/"einsum"/"auto" — see
    #: :data:`repro.kir.library.VARIANT_SCHEDULE`.
    kernel_variant: str = "fused"
    gs_method: Optional[str] = None     # None -> autotune at setup
    cfl: float = 0.4
    #: Evaluate the nonlinear fluxes on a 3/2-rule fine grid and
    #: project back (over-integration dealiasing) — the second use of
    #: the small-matrix kernel named in the paper's Section V.
    dealias: bool = False
    #: Adaptive modal shock filter (a :class:`repro.solver.shock.ShockFilter`);
    #: ``None`` disables capturing.  Applied after every full RK step.
    shock_filter: Optional[object] = None
    #: Viscous model (a :class:`repro.solver.viscous.ViscousModel`);
    #: ``None`` solves the Euler equations, as the mini-app snapshot
    #: does; set to get the full compressible Navier-Stokes of Eq. (1).
    viscosity: Optional[object] = None
    #: Boundary-condition table (face index -> BoundarySpec) for
    #: non-periodic mesh directions; see :mod:`repro.solver.boundary`.
    boundaries: Optional[dict] = None
    #: Split-phase overlapped schedule: post the face exchange from the
    #: boundary-element traces, run interior volume work under the
    #: in-flight messages, finish last.  Bitwise identical physics to
    #: the blocking schedule; only the modelled timeline changes (see
    #: module docstring and docs/virtual-time.md, "Overlap accounting").
    overlap: bool = False
    #: Injected per-rank compute jitter: each rank's charged kernel
    #: time is scaled by ``1 + compute_imbalance * h(rank)`` with
    #: ``h`` a deterministic hash in [0, 1) — the same load model
    #: :class:`repro.core.cmtbone.CMTBone` uses, so the solver can
    #: reproduce the paper's Fig. 9 imbalance study (and the LB
    #: subsystem can correct it).  Physics is unaffected.
    compute_imbalance: float = 0.0
    #: Dynamic load balancing (:class:`repro.lb.RebalancePolicy`);
    #: ``None`` or mode ``"off"`` disables it.  When active, the
    #: solver monitors per-step cost, repartitions the mesh along the
    #: SFC when the policy fires, and live-migrates element state
    #: between RK steps (see docs/load-balancing.md).
    lb: Optional[object] = None


@dataclass(eq=False, repr=False)
class StepStats:
    """Per-run diagnostics collected by :meth:`CMTSolver.run`."""

    steps: int = 0
    dt_history: List[float] = field(default_factory=list)
    mass_history: List[float] = field(default_factory=list)
    energy_history: List[float] = field(default_factory=list)


class CMTSolver:
    """Distributed explicit DG Euler solver on a periodic box."""

    def __init__(
        self,
        comm: Comm,
        partition: Partition,
        eos: Optional[IdealGas] = None,
        config: Optional[SolverConfig] = None,
    ):
        mesh = partition.mesh
        self.config = config or SolverConfig()
        if not all(mesh.periodic) and self.config.boundaries is None:
            raise ValueError(
                "mesh has non-periodic directions: pass "
                "SolverConfig(boundaries=...) with a boundary table "
                "(see repro.solver.boundary)"
            )
        if partition.nranks != comm.size:
            raise ValueError(
                f"partition has {partition.nranks} ranks but communicator "
                f"has {comm.size}"
            )
        self.comm = comm
        self.partition = partition
        #: Ownership view the solver actually runs on: the static brick
        #: partition until the load balancer commits an
        #: :class:`repro.lb.ElementAssignment`, that assignment after.
        self.domain = partition
        self.mesh = mesh
        self.eos = eos or IdealGas()
        self.n = mesh.n
        self.nel = partition.nel_local
        # Injected heterogeneity: scales compute charges, as in CMTBone.
        self._load_factor = load_factor(
            comm.rank, self.config.compute_imbalance
        )
        self.dmat = np.asarray(derivative_matrix(self.n))
        self.weights = np.asarray(gll_weights(self.n))
        self.jac = mesh.jacobian

        # Gather-scatter handle over the DG face-pair numbering.
        gids = dg_face_numbering(partition, comm.rank)
        self.face_handle = gs_setup(gids, comm)
        if self.config.gs_method is not None:
            self.face_handle.method = self.config.gs_method
        elif comm.size > 1:
            choose_method(self.face_handle, trials=SETUP_TRIALS)
        else:
            self.face_handle.method = "pairwise"
        self.stats = StepStats()
        # Boundary/interior element split for the overlapped schedule:
        # only boundary elements contribute to cross-rank face messages,
        # so their traces suffice to post the exchange.
        self._bnd_elements = partition.boundary_local_indices(comm.rank)
        self._int_elements = partition.interior_local_indices(comm.rank)
        # Physical boundary handler (None on fully periodic boxes).
        self.boundary = None
        if self.config.boundaries is not None:
            from .boundary import BoundaryHandler

            self.boundary = BoundaryHandler(
                partition, comm.rank, self.config.boundaries
            )
        #: Optional phase profiler (e.g. a CallGraphProfiler); when
        #: set, rhs/step bracket their phases with the taxonomy names
        #: "derivative", "surface", "exchange", "update" — the same
        #: taxonomy the validation methodology maps CMT-bone onto.
        self.profiler = None
        #: Dynamic load balancer (:class:`repro.lb.LoadBalancer`);
        #: ``None`` unless ``config.lb`` enables a policy.
        self.lb = None
        if self.config.lb is not None and getattr(
            self.config.lb, "enabled", False
        ):
            from ..lb import ElementAssignment, LoadBalancer

            self.lb = LoadBalancer(
                comm,
                ElementAssignment.from_partition(partition),
                self.config.lb,
            )

        #: Reusable scratch pool of the RHS/RK hot path: the flux,
        #: divergence, trace and RK-stage arrays are preallocated
        #: buffers, never fresh ``(nel, N, N, N)``-sized batches.
        self._work = Workspace()

        # Stage constants of the surface term, broadcast over traces:
        # the outward-normal sign per face, and the SAT scale
        # -sign * jac_axis / w_endpoint.
        w_end = float(self.weights[0])  # == weights[-1] by symmetry
        self._face_sign = np.array(FACE_NORMAL_SIGN).reshape(1, 6, 1, 1)
        self._sat_scale = np.array(
            [
                -FACE_NORMAL_SIGN[f] * self.jac[FACE_NORMAL_AXIS[f]] / w_end
                for f in range(6)
            ]
        ).reshape(1, 1, 6, 1, 1)

    # -- cost charging ---------------------------------------------------

    def _charge(self, flops: float, mem_bytes: float = 0.0,
                efficiency: float = 0.7) -> None:
        seconds = self.comm.machine.compute_seconds(
            flops=flops, mem_bytes=mem_bytes, efficiency=efficiency
        )
        self.comm.compute(seconds=seconds * self._load_factor)

    def _region(self, name: str):
        """Phase bracket: profiler region when attached, else no-op."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.region(name)

    def _scratch(self, key: str, shape, dtype, zero: bool = False):
        """A stage buffer pooled under ``key``; contents undefined
        unless ``zero``."""
        pool = self._work.zeros if zero else self._work.buffer
        return pool(shape, dtype, key=key)

    # -- spatial operator ---------------------------------------------------

    def rhs(
        self, u: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Semi-discrete right-hand side ``du/dt = L(u)``.

        Dispatches to one of two schedules over the same phase pipeline
        (see module docstring); both produce bitwise-identical arrays.
        ``out``, when given, receives the result in place (the RK loop
        passes a workspace buffer here so stages stop allocating).
        """
        if self.config.overlap and self.comm.size > 1:
            return self._rhs_overlapped(u, out=out)
        return self._rhs_blocking(u, out=out)

    def _rhs_into(self, u: np.ndarray) -> np.ndarray:
        """:meth:`rhs` into a reusable workspace buffer.

        The RK steppers consume each stage's RHS before requesting the
        next, so one buffer serves all stages of a step.  Only the
        stepper uses this entry point — external callers get fresh
        arrays from :meth:`rhs`.
        """
        return self.rhs(u, out=self._work.like(u, key="rhs:out"))

    def _rhs_blocking(
        self, u: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Textbook phase order: every phase completes before the next."""
        # (1)+(2) volume terms: pointwise fluxes, then flux divergence.
        with self._region("derivative"):
            fx, fy, fz = self._pointwise_fluxes(u)
            div = self._flux_divergence(fx, fy, fz)

        # (3) full2face_cmt: state, normal flux, and wavespeed traces.
        with self._region("surface"):
            traces = self._surface_traces(u, fx, fy, fz)
            uf, ff, lam = self._trace_views(traces)

        # (4) nearest-neighbour exchange via the gs library.
        with self._region("exchange"):
            usum, fsum, lam_max = self._exchange_traces(traces)

        # (5) numerical flux + SAT correction.
        with self._region("surface"):
            return self._surface_correction(
                div, uf, ff, usum, fsum, lam_max, out=out
            )

    def _rhs_overlapped(
        self, u: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Split-phase schedule: exchange in flight under interior work.

        Boundary elements — the only ones whose faces carry cross-rank
        shared ids — are evaluated first so the exchange can be posted
        immediately; the interior volume terms (and the *full* flux
        divergence, once the flux arrays are assembled) then run while
        the messages travel.  ``gs_op_finish`` re-condenses the fully
        populated traces, so the folded result is bitwise identical to
        the blocking exchange.
        """
        n, nel = self.n, self.nel
        bnd, intr = self._bnd_elements, self._int_elements

        # Phase 1: boundary volume fluxes + traces.  The flux and trace
        # arrays are allocated full-size and filled subset-by-subset;
        # zeros elsewhere are never *sent* (only cross-rank shared ids
        # are, and those live on boundary faces filled right here).
        with self._region("derivative"):
            fshape = (NEQ,) + u.shape[1:]
            fx, fy, fz = (
                self._scratch(k, fshape, u.dtype, zero=True)
                for k in ("ovl:fx", "ovl:fy", "ovl:fz")
            )
            self._pointwise_fluxes_into(u, bnd, fx, fy, fz)
        with self._region("surface"):
            traces = self._scratch(
                "tr:all", self._trace_shape(), u.dtype, zero=True
            )
            uf, ff, lam = self._trace_views(traces)
            self._surface_traces_into(u, fx, fy, fz, bnd, uf, ff, lam)

        # Phase 2: post the exchange (gs_op_begin; nothing waits yet).
        with self._region("exchange"):
            exchanges = self._begin_exchanges(uf, ff, lam)

        # Phase 3: interior volume work overlapped with the in-flight
        # messages — the ``ax_`` hot spot hides the communication.
        with self._region("derivative"):
            self._pointwise_fluxes_into(u, intr, fx, fy, fz)
            div = self._flux_divergence(fx, fy, fz)
        with self._region("surface"):
            self._surface_traces_into(u, fx, fy, fz, intr, uf, ff, lam)

        # Phase 4: finish the exchange (waits only for exposed comm).
        with self._region("exchange"):
            usum, fsum, lam_max = self._finish_exchanges(
                exchanges, uf, ff, lam
            )

        # Phase 5: numerical flux + SAT correction.
        with self._region("surface"):
            return self._surface_correction(
                div, uf, ff, usum, fsum, lam_max, out=out
            )

    # -- phase implementations ----------------------------------------------

    def _pointwise_fluxes(self, u: np.ndarray):
        """Elementwise volume fluxes of an element batch ``(NEQ, k, N^3)``.

        Handles dealiasing and the viscous contribution; charges model
        time linear in the batch size ``k``, so evaluating disjoint
        subsets charges exactly what one full-batch evaluation would.
        With dealiasing on, the nonlinear products are evaluated on the
        3/2-rule fine grid and projected back ("an element is first
        mapped to a finer mesh and later mapped back", Sec. V).
        """
        n = self.n
        nel_b = u.shape[1]
        eos = self.eos
        if self.config.dealias:
            dvariant = self.config.kernel_variant
            m = dealias_order(n)
            work = self._work
            uf_fine = work.buffer(
                (NEQ, nel_b, m, m, m), u.dtype, key="dealias:uf"
            )
            fout = (
                work.like(uf_fine, key="dealias:ffx"),
                work.like(uf_fine, key="dealias:ffy"),
                work.like(uf_fine, key="dealias:ffz"),
            )
            fx = work.like(u, key="flux:x")
            fy = work.like(u, key="flux:y")
            fz = work.like(u, key="flux:z")
            # Blocks of components, sized by the (larger) fine grid.
            blocks = field_blocks(uf_fine)
            for b in blocks:
                to_fine(
                    as_elements(u[b]), n, m, out=as_elements(uf_fine[b]),
                    work=work, variant=dvariant,
                )
            ffx, ffy, ffz = euler_fluxes(uf_fine, eos, out=fout)
            for b in blocks:
                for fine, coarse in ((ffx, fx), (ffy, fy), (ffz, fz)):
                    to_coarse(
                        as_elements(fine[b]), n, m,
                        out=as_elements(coarse[b]), work=work,
                        variant=dvariant,
                    )
            # NEQ fields up + 3*NEQ flux components down = 2*NEQ
            # roundtrip-pair equivalents.
            self._charge(
                flux_flops(m, nel_b) + 2 * NEQ * dealias_flops(n, nel=nel_b)
            )
        else:
            fout = (
                self._work.like(u, key="flux:x"),
                self._work.like(u, key="flux:y"),
                self._work.like(u, key="flux:z"),
            )
            fx, fy, fz = euler_fluxes(u, eos, out=fout)
            self._charge(flux_flops(n, nel_b))
        if self.config.viscosity is not None:
            fvx, fvy, fvz = viscous_fluxes(
                u, eos, self.config.viscosity, self.dmat, self.jac,
                variant=self.config.kernel_variant,
            )
            # fx/fy/fz are this stage's workspace buffers, so subtracting
            # in place performs the same elementwise op as `fx - fvx`.
            fx -= fvx
            fy -= fvy
            fz -= fvz
            self._charge(viscous_flops(n, nel_b))
        return fx, fy, fz

    def _pointwise_fluxes_into(self, u, elements, fx, fy, fz) -> None:
        """:meth:`_pointwise_fluxes` of a subset, assembled in place.

        All flux kernels are element-local (elementwise products, or
        per-element tensor contractions batched over the element axis),
        so subset evaluation + assembly is bitwise identical to one
        full-batch call.
        """
        if len(elements) == 0:
            return
        bx, by, bz = self._pointwise_fluxes(u[:, elements])
        fx[:, elements] = bx
        fy[:, elements] = by
        fz[:, elements] = bz

    def _flux_divergence(self, fx, fy, fz) -> np.ndarray:
        """Full flux divergence (the ``ax_`` derivative hot spot)."""
        n, nel = self.n, self.nel
        div = flux_divergence_multi(
            fx, fy, fz, self.dmat, self.jac,
            variant=self.config.kernel_variant,
            out=self._work.like(fx, key="div:out"),
            work=self._work.like(fx[field_blocks(fx)[0]], key="div:tmp"),
        )
        self._charge(
            divergence_flops(n, nel, NEQ),
            mem_bytes=NEQ * dkernels.mem_bytes(n, nel, 3),
        )
        return div

    def _trace_shape(self) -> tuple:
        """The stage's trace stack: ``NEQ`` state, ``NEQ`` normal-flux
        and one wavespeed trace, ``(2*NEQ+1, nel, 6, N, N)``."""
        return (2 * NEQ + 1, self.nel, 6, self.n, self.n)

    @staticmethod
    def _trace_views(stack: np.ndarray) -> tuple:
        """``(state, flux, wavespeed)`` views of a trace stack."""
        return stack[:NEQ], stack[NEQ:2 * NEQ], stack[2 * NEQ]

    def _surface_traces(self, u, fx, fy, fz) -> np.ndarray:
        """full2face_cmt: the stage's trace stack of state, normal-flux
        and wavespeed traces (:meth:`_trace_views`)."""
        traces = self._scratch("tr:all", self._trace_shape(), u.dtype)
        uf, ff, lam = self._trace_views(traces)
        full2face_multi(u, out=uf)
        normal_flux_trace(fx, fy, fz, ff)
        self._face_wavespeed(uf, out=lam)
        self._charge(full2face_flops(self.n, self.nel, ncomp=4 * NEQ + 1))
        return traces

    def _surface_traces_into(self, u, fx, fy, fz, elements, uf, ff, lam):
        """:meth:`_surface_traces` of a subset, written into full arrays."""
        k = len(elements)
        if k == 0:
            return
        ufb = full2face_multi(u[:, elements])
        uf[:, elements] = ufb
        normal_flux_trace(fx, fy, fz, ff, elements)
        lam[elements] = self._face_wavespeed(ufb)
        self._charge(full2face_flops(self.n, k, ncomp=4 * NEQ + 1))

    def _exchange_traces(self, traces):
        """Nearest-neighbour trace exchange via the gs library: one
        ``gs_op`` over the stage's trace stack, SUM on the state and
        flux traces and MAX on the wavespeed, split into
        :func:`field_blocks` when the traces are large.  Every trace
        costs the same to exchange, so clocks, profile rows and the
        message trace are those of one call per trace group."""
        h = self.face_handle
        sums = self._scratch("tr:sum", traces.shape, traces.dtype)
        for b in field_blocks(traces):
            gs_op(h, traces[b], op=_TRACE_OPS[b], site=SITE_FACE_EXCHANGE,
                  out=sums[b])
        uf, _, lam = self._trace_views(traces)
        usum, fsum, lam_max = self._trace_views(sums)
        return self._fold_ghost_traces(uf, lam, usum, fsum, lam_max)

    def _begin_exchanges(self, uf, ff, lam) -> list:
        """Post the 11 trace exchanges (5 state + 5 flux SUM, 1 MAX).

        Every trace folds its neighbours' payloads in the blocking
        exchange's order, so floating point is identical.  Each in-flight
        exchange gets a distinct tag; the per-channel FIFO would keep
        same-tag messages ordered anyway, but distinct tags make the
        matching robust and the traces legible.
        """
        h = self.face_handle
        exchanges = []
        tag = TAG_PAIRWISE
        for c in range(NEQ):
            exchanges.append(gs_op_begin(
                h, uf[c], op=SUM, site=SITE_FACE_EXCHANGE, tag=tag
            ))
            exchanges.append(gs_op_begin(
                h, ff[c], op=SUM, site=SITE_FACE_EXCHANGE, tag=tag + 1
            ))
            tag += 2
        exchanges.append(gs_op_begin(
            h, lam, op=MAX, site=SITE_FACE_EXCHANGE, tag=tag
        ))
        return exchanges

    def _finish_exchanges(self, exchanges, uf, ff, lam):
        """Finish the posted exchanges against the *completed* traces."""
        usum, fsum, lam_max = self._trace_views(
            self._scratch("tr:sum", self._trace_shape(), uf.dtype)
        )
        it = iter(exchanges)
        for c in range(NEQ):
            gs_op_finish(next(it), uf[c], out=usum[c])
            gs_op_finish(next(it), ff[c], out=fsum[c])
        gs_op_finish(next(it), lam, out=lam_max)
        return self._fold_ghost_traces(uf, lam, usum, fsum, lam_max)

    def _fold_ghost_traces(self, uf, lam, usum, fsum, lam_max):
        """Add physical-boundary ghost contributions (if any), in place."""
        if self.boundary is not None:
            self.boundary.add_ghost_traces(
                uf, lam, usum, fsum, lam_max, self.eos
            )
        return usum, fsum, lam_max

    def _surface_correction(
        self, div, uf, ff, usum, fsum, lam_max, out=None
    ):
        """Numerical flux + SAT correction.  Neighbour traces are
        (sum - mine); the dissipation sign folds the face orientation.

        ``usum``, ``fsum`` and ``lam_max`` belong to this stage and are
        consumed: the neighbour traces, then f* and the SAT term, are
        formed in their storage.
        """
        n, nel = self.n, self.nel
        u_plus = np.subtract(usum, uf, out=usum)
        f_plus = np.subtract(fsum, ff, out=fsum)
        lam = np.multiply(self._face_sign, lam_max, out=lam_max)
        sat_faces = lax_friedrichs(
            uf, u_plus, ff, f_plus, lam[None], out=f_plus, work=u_plus
        )
        sat_faces -= ff
        sat_faces *= self._sat_scale
        rhs = np.negative(div, out=out)
        for b in field_blocks(rhs):
            face2full_add(rhs[b], sat_faces[b])
        self._charge(numflux_flops(n, nel, ncomp=NEQ))
        return rhs

    def _face_wavespeed(self, uf, out=None) -> np.ndarray:
        """Pointwise |v_n| + a on every face trace: (nel, 6, N, N)."""
        rho = uf[RHO]
        mom = uf[MX : MX + 3]
        p = self.eos.pressure(rho, mom, uf[ENERGY])
        a = self.eos.sound_speed(rho, p)
        lam = np.empty_like(rho) if out is None else out
        for axis in range(3):
            # Faces 2*axis and 2*axis + 1 are the pair normal to ``axis``.
            pair = slice(2 * axis, 2 * axis + 2)
            np.divide(mom[axis][:, pair], rho[:, pair], out=lam[:, pair])
        np.abs(lam, out=lam)
        lam += a
        return lam

    # -- dynamic load balancing ----------------------------------------------

    def local_element_ids(self) -> np.ndarray:
        """Global lex ids of this rank's elements, local order.

        For both the brick partition and an assignment the local order
        is ascending global id, so this array is always sorted and
        always matches the element axis of the live field arrays.
        """
        from ..lb.sfc import element_ids

        dom = self.domain
        if hasattr(dom, "element_ids_of"):
            return dom.element_ids_of(self.comm.rank)
        return element_ids(
            self.mesh.shape, np.asarray(dom.local_elements(self.comm.rank))
        )

    def apply_assignment(self, assignment) -> None:
        """Adopt a new element layout: rebuild everything derived from it.

        The gather-scatter handle is rebuilt from the new DG face
        numbering (``LB_gs_rebuild`` call site — setup discovery is
        collective), keeping the previously chosen exchange method; the
        boundary/interior overlap split and the physical-boundary mask
        are recomputed from ownership adjacency.  Does **not** move any
        data — callers migrate first (or load a checkpoint already in
        the new layout).
        """
        from ..lb import OP_LB_REBUILD, SITE_LB_REBUILD

        rank = self.comm.rank
        t0 = self.comm.clock.now
        method = self.face_handle.method
        self.domain = assignment
        self.nel = assignment.nel_of(rank)
        gids = dg_face_numbering(assignment, rank)
        self.face_handle = gs_setup(gids, self.comm, site=SITE_LB_REBUILD)
        self.face_handle.method = method
        self._bnd_elements = assignment.boundary_local_indices(rank)
        self._int_elements = assignment.interior_local_indices(rank)
        # The local element count changed: every cached buffer shape is
        # stale, so drop the pool and let it regrow.
        self._work.clear()
        if self.boundary is not None:
            from .boundary import BoundaryHandler

            self.boundary = BoundaryHandler(
                assignment, rank, self.config.boundaries
            )
        self.comm.profile.record(
            OP_LB_REBUILD, SITE_LB_REBUILD,
            self.comm.clock.now - t0, 0, informational=True,
        )

    def restore_assignment(self, assignment, step: int) -> None:
        """Restore a rebalanced layout from a checkpoint manifest.

        Rebuilds the numbering without migrating (the restored rank
        files already hold the rebalanced layout) and primes the load
        balancer's hysteresis without counting a rebalance event.
        """
        self.apply_assignment(assignment)
        if self.lb is not None:
            self.lb.commit(assignment, step, count=False)

    def _maybe_rebalance(self, gstep: int, state: FlowState) -> FlowState:
        """Policy check + live migration between RK steps (collective)."""
        new = self.lb.propose(gstep)
        if new is None:
            return state
        from ..lb import migrate_elements

        with self._region("lb_migrate"):
            out, stats = migrate_elements(
                self.comm, self.local_element_ids(), new,
                [("u", state.u, 1)],
            )
            self.apply_assignment(new)
        self.lb.commit(new, gstep, stats=stats)
        return FlowState(u=out["u"], eos=state.eos)

    # -- time stepping -------------------------------------------------------

    def stable_dt(self, state: FlowState) -> float:
        """Globally CFL-limited timestep (one allreduce)."""
        local = state.max_wavespeed()
        speed = self.comm.allreduce(local, op=MAX, site="cmt:cfl")
        dx = min(self.mesh.element_lengths)
        return cfl_dt(speed, dx, self.n, cfl=self.config.cfl)

    def step(self, state: FlowState, dt: float) -> FlowState:
        """Advance one explicit RK step (+ adaptive shock filter)."""
        with self._region("update"):
            unew = step_ssprk3(state.u, self._rhs_into, dt, self._work)
            # RK axpy arithmetic: ~2 flops and one read-modify-write
            # per point per stage, three stages.
            self._charge(
                2.0 * 3 * float(unew.size),
                mem_bytes=32.0 * 3 * float(unew.size),
            )
        filt = self.config.shock_filter
        if filt is not None:
            unew = filt.apply_state(unew)
            self._charge(
                10.0 * float(unew.size)  # three tensor transforms-ish
            )
        return FlowState(u=unew, eos=state.eos)

    def run(
        self,
        state: FlowState,
        nsteps: int,
        dt: Optional[float] = None,
        monitor_every: int = 0,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        step_offset: int = 0,
        time_offset: float = 0.0,
        checkpoint_job_id: Optional[str] = None,
    ) -> FlowState:
        """Advance ``nsteps``; optionally re-evaluate dt and conservation.

        ``monitor_every > 0`` triggers a conserved-integral reduction
        every so many steps (the vector-reduction traffic the paper
        lists among CMT-bone's communication operations).

        ``checkpoint_every > 0`` (with ``checkpoint_dir``) writes a
        complete checkpoint after every so many *global* steps.  Global
        step numbering is ``step_offset + istep`` — a restarted run
        passes the restored step/time as offsets so checkpoint cadence,
        step-triggered fault events, and the accumulated solution time
        all line up with the plan's original numbering (see
        :func:`run_with_recovery`).
        """
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every needs checkpoint_dir")
        sim_time = time_offset
        for istep in range(nsteps):
            gstep = step_offset + istep
            if self.comm.faults is not None:
                self.comm.faults.check_step_crash(self.comm, gstep)
            if self.lb is not None:
                self.lb.monitor.begin_step()
            step_dt = dt if dt is not None else self.stable_dt(state)
            state = self.step(state, step_dt)
            if self.lb is not None:
                self.lb.monitor.end_step(nel=self.nel)
            sim_time += step_dt
            self.stats.steps += 1
            self.stats.dt_history.append(step_dt)
            if monitor_every and (istep + 1) % monitor_every == 0:
                mass = self.integrate(state.u[RHO])
                energy = self.integrate(state.u[ENERGY])
                self.stats.mass_history.append(mass)
                self.stats.energy_history.append(energy)
            if checkpoint_every and (gstep + 1) % checkpoint_every == 0:
                save_checkpoint(
                    checkpoint_dir, self.comm, self.partition, state,
                    step=gstep + 1, time=sim_time,
                    assignment=(
                        self.domain
                        if self.domain is not self.partition else None
                    ),
                    job_id=checkpoint_job_id,
                )
            if self.lb is not None:
                state = self._maybe_rebalance(gstep, state)
        return state

    # -- diagnostics -----------------------------------------------------------

    def integrate(self, field_: np.ndarray) -> float:
        """Global integral of a scalar field (quadrature + allreduce)."""
        w = self.weights
        wx = w.reshape(1, -1, 1, 1)
        wy = w.reshape(1, 1, -1, 1)
        wz = w.reshape(1, 1, 1, -1)
        jx, jy, jz = self.jac
        local = float(np.sum(field_ * wx * wy * wz) / (jx * jy * jz))
        return self.comm.allreduce(local, op=SUM, site="cmt:integrate")

    def conserved_totals(self, state: FlowState) -> Dict[str, float]:
        """Global integrals of all five conserved components."""
        from .state import COMPONENT_NAMES

        return {
            name: self.integrate(state.u[c])
            for c, name in enumerate(COMPONENT_NAMES)
        }


# ---------------------------------------------------------------------------
# crash-recovery restart loop
# ---------------------------------------------------------------------------


class AttemptRecord(NamedTuple):
    """One launch of the job inside :func:`run_with_recovery`."""

    index: int
    start_step: int
    crashed: bool
    makespan: float
    crash: str = ""
    crash_step: Optional[int] = None
    restored_step: int = 0
    lost_work_seconds: float = 0.0


@dataclass(eq=False, repr=False)
class FaultRunReport:
    """Lost-work / restart accounting for a fault-injected campaign.

    All times are virtual seconds.  *Campaign time* concatenates the
    attempts: each launch contributes its makespan (slowest rank), plus
    a fixed restart overhead per relaunch; ``gantt_intervals`` places
    every attempt's per-rank run bars — with retry, lost-work, and
    restart spans — on that shared campaign axis, ready for
    :func:`repro.analysis.render_gantt`.
    """

    nranks: int
    nsteps: int
    checkpoint_every: int
    attempts: List[AttemptRecord] = field(default_factory=list)
    restarts: int = 0
    crashes: List[str] = field(default_factory=list)
    steps_lost: int = 0
    lost_work_seconds: float = 0.0
    restart_overhead_seconds: float = 0.0
    messages_dropped: int = 0
    retry_penalty_seconds: float = 0.0
    total_virtual_seconds: float = 0.0
    #: Campaign-time intervals for the text gantt (see class docstring).
    gantt_intervals: List[object] = field(default_factory=list)
    #: mpiP-style profile of the final (successful) attempt.
    final_profile: Optional[object] = None
    #: One profile per attempt, crashed ones included — the FAULT_Crash
    #: pseudo-callsite lives in the attempt that died.
    attempt_profiles: List[object] = field(default_factory=list)

    def campaign_profile(self):
        """All attempts merged into one mpiP-style profile.

        Per-rank totals sum across attempts, so a rank's "app time"
        here is its whole-campaign virtual time (replays included) —
        the right denominator when asking what the faults cost.
        """
        from ..mpi.profiler import JobProfile

        prof = JobProfile(nranks=self.nranks)
        for p in self.attempt_profiles:
            prof.rank_profiles.extend(p.rank_profiles)
            for r, (app, mpi) in p.rank_totals.items():
                a0, m0 = prof.rank_totals.get(r, (0.0, 0.0))
                prof.rank_totals[r] = (a0 + app, m0 + mpi)
        return prof

    def summary(self) -> str:
        """Human-readable recovery report for CLI output."""
        lines = [
            f"fault campaign: {self.nsteps} steps on {self.nranks} ranks, "
            f"checkpoint every "
            f"{self.checkpoint_every if self.checkpoint_every else 'never'}"
            f"{' steps' if self.checkpoint_every else ''}",
            f"  attempts: {len(self.attempts)} "
            f"({self.restarts} restart{'s' if self.restarts != 1 else ''})",
        ]
        for a in self.attempts:
            if a.crashed:
                lines.append(
                    f"  attempt {a.index}: from step {a.start_step}, "
                    f"CRASHED ({a.crash}) after {a.makespan:.6g} s; "
                    f"restored step {a.restored_step}, "
                    f"lost {a.lost_work_seconds:.6g} s of work"
                )
            else:
                lines.append(
                    f"  attempt {a.index}: from step {a.start_step}, "
                    f"completed in {a.makespan:.6g} s"
                )
        lines.append(
            f"  lost work: {self.lost_work_seconds:.6g} s over "
            f"{self.steps_lost} replayed step"
            f"{'s' if self.steps_lost != 1 else ''}"
        )
        lines.append(
            f"  restart overhead: {self.restart_overhead_seconds:.6g} s"
        )
        if self.messages_dropped:
            lines.append(
                f"  dropped messages: {self.messages_dropped} "
                f"(retry penalty {self.retry_penalty_seconds:.6g} s)"
            )
        lines.append(
            f"  total campaign virtual time: "
            f"{self.total_virtual_seconds:.6g} s"
        )
        return "\n".join(lines)


def check_dt(dt: float) -> None:
    """Raise ``ValueError`` unless ``dt`` is a finite, positive step."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")


def run_with_recovery(
    setup: Callable[..., tuple],
    nranks: int,
    nsteps: int,
    dt: Optional[float] = None,
    checkpoint_every: int = 0,
    checkpoint_dir=None,
    fault_plan=None,
    machine=None,
    max_restarts: int = 8,
    monitor_every: int = 0,
    backend: str = "threads",
    job_id: Optional[str] = None,
) -> tuple:
    """Run a solver campaign to completion through injected crashes.

    ``setup(comm)`` must build the per-rank ``(solver, initial_state)``
    pair — it is called afresh on every attempt, exactly like a
    resubmitted job re-reads its input deck.  The loop launches the job
    on a fresh :class:`~repro.mpi.Runtime` (the runtime is single-shot);
    when an injected crash (:class:`~repro.mpi.RankCrashError`) kills
    it, the loop restores the last *complete* checkpoint — the atomic
    manifest guarantees completeness — disarms the crash events that
    already fired, charges a restart overhead, and replays from the
    restored step.  Fault-free runs take this same path with a single
    attempt and an empty accounting.

    Returns ``(per_rank_final_states, FaultRunReport)``.  The replayed
    physics is bitwise identical to a fault-free run: checkpoints
    round-trip the state exactly and global step numbering (and hence
    dt sequencing and checkpoint cadence) is preserved across restarts.

    ``backend`` selects the execution backend (``"threads"``,
    ``"sockets"`` or its local alias ``"procs"``) for every attempt's
    Runtime; crash marshalling, checkpoint commit protocol and fault
    accounting are backend-transparent (see ``docs/backends.md``).  A
    rank process that dies without an exit record (a SIGKILL, an
    ``os._exit``) is a :class:`RankCrashError` like an injected crash,
    so it is replayed from the last checkpoint too.

    ``checkpoint_dir`` names a *base* directory: the campaign's
    checkpoints actually live in a ``job-<id>`` subdirectory of it
    (``job_id`` when given, else a generated unique id), and every
    manifest read verifies the id.  Concurrent campaigns can therefore
    share a base directory without clobbering — or silently adopting —
    each other's checkpoints.
    """
    from ..mpi import RankCrashError, Runtime
    from ..perfmodel.machine import MachineModel

    if checkpoint_every and checkpoint_dir is None:
        raise ValueError("checkpoint_every needs checkpoint_dir")
    if dt is not None:
        check_dt(dt)
    if job_id is None:
        job_id = secrets.token_hex(8)
    if checkpoint_dir is not None:
        checkpoint_dir = checkpoint_namespace(checkpoint_dir, job_id)
    machine_ = machine if machine is not None else MachineModel.default()
    report = FaultRunReport(
        nranks=nranks, nsteps=nsteps, checkpoint_every=checkpoint_every
    )
    plan = fault_plan
    campaign_t = 0.0
    attempt = 0

    while True:
        start_step, start_time, have_ckpt = 0, 0.0, False
        if checkpoint_dir is not None:
            try:
                info = read_manifest(checkpoint_dir, expect_job_id=job_id)
                start_step, start_time = info.step, info.time
                have_ckpt = True
            except FileNotFoundError:
                pass

        def main(comm):
            solver, state = setup(comm)
            if have_ckpt:
                minfo = read_manifest(checkpoint_dir, expect_job_id=job_id)
                asg = assignment_from_info(minfo, solver.partition)
                if asg is not None:
                    # Rebuild the rebalanced layout *before* loading:
                    # the rank files hold per-rank element counts of
                    # the assignment, not the brick partition.
                    solver.restore_assignment(asg, minfo.step)
                state, _ = load_checkpoint(
                    checkpoint_dir, comm, solver.partition,
                    expect_job_id=job_id,
                )
            return solver.run(
                state,
                nsteps - start_step,
                dt=dt,
                monitor_every=monitor_every,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
                step_offset=start_step,
                time_offset=start_time,
                checkpoint_job_id=job_id,
            )

        rt = Runtime(
            nranks=nranks,
            machine=machine_,
            fault_plan=plan,
            fault_base_step=start_step,
            backend=backend,
        )
        try:
            results = rt.run(main)
        except RankCrashError as crash:
            stats = rt.clock_stats()
            makespan = max(s.total for s in stats)
            restored_step, ckpt_vtime = start_step, None
            if checkpoint_dir is not None:
                try:
                    m = read_manifest(checkpoint_dir, expect_job_id=job_id)
                    restored_step = m.step
                    if m.step > start_step:
                        # Checkpoint written *this* attempt: its vtime
                        # is on this attempt's clock, so the work lost
                        # is everything past the commit point.
                        ckpt_vtime = m.vtime
                except FileNotFoundError:
                    pass
            lost = makespan - ckpt_vtime if ckpt_vtime is not None else makespan
            lost = max(lost, 0.0)
            crash_step = crash.step
            steps_lost = max((crash_step or restored_step) - restored_step, 0)
            report.attempts.append(AttemptRecord(
                index=attempt,
                start_step=start_step,
                crashed=True,
                makespan=makespan,
                crash=str(crash),
                crash_step=crash_step,
                restored_step=restored_step,
                lost_work_seconds=lost,
            ))
            report.crashes.append(str(crash))
            report.steps_lost += steps_lost
            report.lost_work_seconds += lost
            _campaign_intervals(
                report, stats, campaign_t, attempt,
                lost_from=(ckpt_vtime if ckpt_vtime is not None else 0.0),
            )
            campaign_t += makespan
            _restart_interval(
                report, nranks, campaign_t, machine_.restart_latency
            )
            campaign_t += machine_.restart_latency
            report.restarts += 1
            report.restart_overhead_seconds += machine_.restart_latency
            report.attempt_profiles.append(rt.job_profile())
            _merge_fault_stats(report, rt)
            if rt.faults is not None and plan is not None:
                plan = plan.without(*rt.faults.fired_crashes)
            attempt += 1
            if attempt > max_restarts:
                report.total_virtual_seconds = campaign_t
                raise
            continue

        stats = rt.clock_stats()
        makespan = max(s.total for s in stats)
        report.attempts.append(AttemptRecord(
            index=attempt,
            start_step=start_step,
            crashed=False,
            makespan=makespan,
        ))
        _campaign_intervals(report, stats, campaign_t, attempt)
        campaign_t += makespan
        _merge_fault_stats(report, rt)
        report.total_virtual_seconds = campaign_t
        report.final_profile = rt.job_profile()
        report.attempt_profiles.append(report.final_profile)
        return results, report


def _merge_fault_stats(report: FaultRunReport, rt) -> None:
    if rt.faults is None:
        return
    s = rt.faults.summary()
    report.messages_dropped += s["messages_dropped"]
    report.retry_penalty_seconds += s["retry_penalty_seconds"]


def _campaign_intervals(
    report: FaultRunReport,
    stats,
    campaign_t: float,
    attempt: int,
    lost_from: Optional[float] = None,
) -> None:
    """Place one attempt's per-rank bars on the campaign time axis.

    Each rank gets a ``run`` bar for its clock span; retry time (if
    any) is drawn as a span at the tail of the bar — schematic
    placement, the clock records only totals; on crashed attempts the
    work past the last checkpoint commit is overlaid as a ``lost-work``
    span so replayed time is visible in the chart.
    """
    from ..analysis.timeline import Interval

    for s in stats:
        if s.total <= 0:
            continue
        name = f"run#{attempt}" if attempt else "run"
        report.gantt_intervals.append(Interval(
            rank=s.rank, name=name,
            t0=campaign_t, t1=campaign_t + s.total,
        ))
        retry = s.extra.get("retry_time", 0.0)
        if retry > 0:
            report.gantt_intervals.append(Interval(
                rank=s.rank, name="retry",
                t0=campaign_t + s.total - retry,
                t1=campaign_t + s.total,
                span=True,
            ))
        if lost_from is not None and s.total > lost_from:
            report.gantt_intervals.append(Interval(
                rank=s.rank, name="lost-work",
                t0=campaign_t + lost_from, t1=campaign_t + s.total,
                span=True,
            ))


def _restart_interval(
    report: FaultRunReport, nranks: int, campaign_t: float, overhead: float
) -> None:
    from ..analysis.timeline import Interval

    if overhead <= 0:
        return
    for r in range(nranks):
        report.gantt_intervals.append(Interval(
            rank=r, name="restart",
            t0=campaign_t, t1=campaign_t + overhead,
        ))
