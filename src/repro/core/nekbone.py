"""Nekbone — the reference mini-app CMT-bone is compared against.

Fig. 7 times the gather-scatter candidates "for both CMT-bone and
Nekbone mini-apps for the same problem setup".  Nekbone (Mantevo/CESAR)
distills Nek5000's pressure solve: unpreconditioned conjugate gradients
on a spectral-element Helmholtz system, whose matvec is

    w = A u + B u,        A = sum_d J j_d^2 D_d^T W D_d,
                          B = J W   (diagonal mass),

followed by direct-stiffness summation (``gs_op(add)`` over the C0
*continuous* numbering) and two allreduce dot products per iteration.

The continuous numbering couples faces, edges, *and* corners, so a
rank talks to up to 26 neighbours with many tiny messages — the
communication structure that makes the crystal router competitive for
Nekbone while CMT-bone (6 fat face messages) prefers pairwise
exchange.  That contrast is the Fig. 7 reproduction target.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..analysis.callgraph import CallGraphProfiler
from ..gs import GSHandle, MethodTiming, choose_method, gs_op, gs_setup
from ..gs.autotune import SETUP_TRIALS
from ..kernels import counters, derivative_matrix, gll_weights
from ..kernels import derivatives as dkernels
from ..mesh import Partition, continuous_numbering
from ..mpi import SUM, Comm
from .config import NekboneConfig

R_SETUP = "gs_setup"
R_AX = "ax_local"
R_GSOP = "gs_op_"
R_DOT = "glsc3"          # nek's weighted dot product
R_CG = "cg_iteration"

#: Seed of the manufactured solution's random field (plus 7).
SEED = 1999


class NekboneResult(NamedTuple):
    """Outputs of one Nekbone run."""

    rank: int
    config: NekboneConfig
    autotune: Optional[Dict[str, MethodTiming]]
    chosen_method: str
    profiler: CallGraphProfiler
    iterations: int
    residual_history: List[float]
    solution_error: Optional[float]
    vtime_total: float
    vtime_comm: float


class Nekbone:
    """One rank's Nekbone instance (construct inside the SPMD main)."""

    def __init__(self, comm: Comm, config: Optional[NekboneConfig] = None):
        self.comm = comm
        self.config = config or NekboneConfig()
        self.partition: Partition = self.config.build_partition(comm.size)
        self.n = self.config.n
        self.nel = self.partition.nel_local
        self.dmat = np.asarray(derivative_matrix(self.n))
        self.profiler = CallGraphProfiler(comm.clock, comm.rank)
        self.autotune: Optional[Dict[str, MethodTiming]] = None

        with self.profiler.region(R_SETUP):
            gids = continuous_numbering(self.partition, comm.rank)
            self.handle: GSHandle = gs_setup(gids, comm, site=R_SETUP)
            if self.config.gs_method is not None:
                self.handle.method = self.config.gs_method
            elif comm.size > 1:
                self.autotune = choose_method(
                    self.handle, trials=SETUP_TRIALS
                )
            else:
                self.handle.method = "pairwise"

        # Geometric factors on the affine brick mesh.
        self._dmat_t = np.ascontiguousarray(self.dmat.T)
        mesh = self.partition.mesh
        jx, jy, jz = mesh.jacobian
        jvol = 1.0 / (jx * jy * jz)        # volume Jacobian
        self._stiff_scale = (jvol * jx * jx, jvol * jy * jy, jvol * jz * jz)
        w = np.asarray(gll_weights(self.n))
        self._w3d = (
            w[:, None, None] * w[None, :, None] * w[None, None, :]
        )[None]  # (1, N, N, N) broadcast over elements
        self._bmass = jvol * self._w3d
        # Assembly weight: 1 / global multiplicity (counts shared
        # points once in dot products).
        ones = np.ones(self.handle.shape)
        mult = gs_op(self.handle, ones, op=SUM, site=R_SETUP)
        self._inv_mult = 1.0 / mult
        self._machine = comm.machine

    # -- operator ----------------------------------------------------------

    def ax_local(self, u: np.ndarray) -> np.ndarray:
        """Element-local Helmholtz matvec (no assembly): stiffness plus
        mass."""
        sx, sy, sz = self._stiff_scale
        d = self.dmat
        w3 = self._w3d
        ur = dkernels.dudr(u, d)
        us = dkernels.duds(u, d)
        ut = dkernels.dudt(u, d)
        dt = self._dmat_t
        w = dkernels.dudr(sx * w3 * ur, dt)
        w += dkernels.duds(sy * w3 * us, dt)
        w += dkernels.dudt(sz * w3 * ut, dt)
        w += self._bmass * u
        return w

    def ax(self, u: np.ndarray) -> np.ndarray:
        """Assembled matvec: local ax + direct-stiffness summation."""
        with self.profiler.region(R_AX):
            if self.config.work_mode == "real":
                w = self.ax_local(u)
            else:
                w = u
            self.comm.compute(
                seconds=2.0
                * counters.roofline_seconds(self.n, self.nel, self._machine)
            )
        with self.profiler.region(R_GSOP):
            w = gs_op(self.handle, w, op=SUM, site=R_GSOP)
        return w

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Multiplicity-weighted global inner product (one allreduce)."""
        with self.profiler.region(R_DOT):
            local = float(np.sum(a * b * self._inv_mult))
            npts = a.size
            self.comm.compute(
                seconds=self._machine.compute_seconds(
                    flops=3.0 * npts, mem_bytes=24.0 * npts
                )
            )
            return self.comm.allreduce(local, op=SUM, site=R_DOT)

    # -- CG solve -----------------------------------------------------------

    def solve(
        self,
        rhs: np.ndarray,
        tol: float = 1e-8,
        maxiter: Optional[int] = None,
    ) -> tuple:
        """Unpreconditioned CG; returns (x, iterations, residual history)."""
        maxiter = self.config.cg_iterations if maxiter is None else maxiter
        x = np.zeros_like(rhs)
        r = rhs.copy()
        p = r.copy()
        rtr = self.dot(r, r)
        history = [np.sqrt(max(rtr, 0.0))]
        it = 0
        for it in range(1, maxiter + 1):
            with self.profiler.region(R_CG):
                w = self.ax(p)
                pap = self.dot(p, w)
                if pap <= 0:
                    break
                alpha = rtr / pap
                x += alpha * p
                r -= alpha * w
                rtr_new = self.dot(r, r)
                history.append(np.sqrt(max(rtr_new, 0.0)))
                if history[-1] < tol:
                    rtr = rtr_new
                    break
                p = r + (rtr_new / rtr) * p
                rtr = rtr_new
        return x, it, history

    def run(self) -> NekboneResult:
        """Manufactured-solution solve: recover a known continuous field."""
        rng = np.random.default_rng(SEED + 7)
        shape = (self.nel, self.n, self.n, self.n)
        raw = rng.standard_normal(shape)
        # Make the exact solution continuous (gs-average).
        x_exact = gs_op(self.handle, raw * self._inv_mult, op=SUM,
                        site=R_SETUP)
        if self.config.work_mode == "real":
            rhs = self.ax(x_exact)
            x, iters, hist = self.solve(rhs, tol=1e-10)
            err = float(np.max(np.abs(x - x_exact)))
        else:
            rhs = x_exact
            x, iters, hist = self.solve(rhs, tol=0.0,
                                        maxiter=self.config.cg_iterations)
            err = None
        clock = self.comm.clock
        return NekboneResult(
            rank=self.comm.rank,
            config=self.config,
            autotune=self.autotune,
            chosen_method=self.handle.method or "pairwise",
            profiler=self.profiler,
            iterations=iters,
            residual_history=hist,
            solution_error=err,
            vtime_total=clock.now,
            vtime_comm=clock.comm_time,
        )


def run_nekbone(comm: Comm, config: Optional[NekboneConfig] = None
                ) -> NekboneResult:
    """SPMD entry point for Nekbone."""
    return Nekbone(comm, config).run()

