"""The per-variable step pipelines: one ``grad``/``full2face``/``gs_op``/
``face2full_add``/``to_fine``/``to_coarse`` call per conserved variable,
as ``CMTBone`` and ``CMTSolver`` ran before their phases were batched
over blocks of fields.  ``test_field_batching.py`` holds the batched
pipelines to these bit for bit — arrays, clocks, profile rows, message
trace; nothing in ``src/`` imports this module.

Also the allocating forms of the solver's RK stage from before it became
one pass (``test_stage_pipeline.py``): the shock filter sensing and
transforming once per component, ghost states returned as full-size
increments, ``full2face`` of every directional flux, the
``take_along_axis`` wavespeed and the one-line numerical fluxes — and
the fresh-allocation behaviour itself: ``PerFieldCMTSolver`` never pools
a stage buffer and steps with the textbook RK formulas below, which
``test_workspace.py`` holds the pooled steppers of ``repro.solver.rk``
and the pooled solver to.
"""

import numpy as np

from repro.core.cmtbone import (
    R_AX,
    R_FULL2FACE,
    R_GSOP,
    R_UPDATE,
    UPDATE_BLOCK,
    CMTBone,
)
from repro.gs import gs_op, gs_op_many
from repro.kernels import counters
from repro.kernels import derivatives as dkernels
from repro.kernels.dealias import (
    dealias_flops,
    dealias_order,
    to_coarse,
    to_fine,
)
from repro.mpi import MAX, SUM
from repro.mesh.topology import FACE_AXIS_SIDE
from repro.solver.divergence import divergence_flops, flux_divergence
from repro.solver.driver import SITE_FACE_EXCHANGE, CMTSolver
from repro.solver.flux import euler_flux, euler_fluxes, flux_flops
from repro.solver.numflux import numflux_flops
from repro.solver.shock import ShockFilter
from repro.solver.state import ENERGY, MX, NEQ, RHO, FlowState
from repro.solver.surface import (
    FACE_NORMAL_AXIS,
    FACE_NORMAL_SIGN,
    face2full_add,
    full2face,
    full2face_flops,
)
from repro.solver.viscous import viscous_flops, viscous_fluxes


class PerFieldCMTBone(CMTBone):
    """``CMTBone`` with one kernel call and one fresh price per field."""

    def _charge_seconds(self, seconds):
        self.comm.compute(seconds=seconds * self._load_factor)

    def _derivative_phase(self):
        cfg = self.config
        with self.profiler.phase(R_AX):
            if cfg.work_mode == "real":
                for c in range(self.neq):
                    dkernels.grad(
                        self.u[c], self.dmat, variant=cfg.kernel_variant,
                        out=dkernels.grad_workspace(self._work, self.u[c]),
                    )
            self._charge_seconds(
                self.neq
                * counters.roofline_seconds(
                    self.n, self.nel, self._machine, variant=cfg.kernel_variant
                )
            )

    def _surface_phase(self):
        with self.profiler.phase(R_FULL2FACE):
            if self.config.work_mode == "real":
                for c in range(self.neq):
                    full2face(self.u[c], out=self._faces[c])
            self._charge_seconds(
                self._machine.compute_seconds(
                    flops=full2face_flops(self.n, self.nel, self.neq),
                    mem_bytes=16.0 * self.neq * self.nel * 6 * self.n**2,
                )
            )

    def _exchange_phase(self):
        nfields = self.config.exchange_fields or self.neq
        with self.profiler.phase(R_GSOP):
            if self.config.pack_fields:
                fields = [
                    self._faces[c % self.neq] for c in range(nfields)
                ]
                gs_op_many(
                    self.handle, fields, op=SUM, site=R_GSOP, out=fields
                )
            else:
                for c in range(nfields):
                    face = self._faces[c % self.neq]
                    gs_op(
                        self.handle, face, op=SUM, site=R_GSOP,
                        out=face if c < self.neq else None,
                    )

    def _update_phase(self):
        with self.profiler.phase(R_UPDATE):
            if self.config.work_mode == "real":
                u = self.u.reshape(-1)
                scratch = self._work.buffer((UPDATE_BLOCK,), key="upd:block")
                for i in range(0, u.size, UPDATE_BLOCK):
                    b = u[i:i + UPDATE_BLOCK]
                    t = scratch[:b.size]
                    b *= 0.75
                    np.multiply(b, 0.25, out=t)
                    b += t
            npts = self.neq * self.nel * self.n**3
            self._charge_seconds(
                self._machine.compute_seconds(
                    flops=2.0 * npts, mem_bytes=24.0 * npts
                )
            )


class PerComponentShockFilter(ShockFilter):
    """``ShockFilter`` sensing and transforming once per component."""

    def apply_state(self, state_u):
        if state_u.ndim != 5:
            raise ValueError(
                f"expected (neq, nel, N, N, N), got {state_u.shape}"
            )
        sensor_field = state_u[0]
        return np.stack(
            [
                self.apply(state_u[c], sensor_field=sensor_field)
                for c in range(state_u.shape[0])
            ],
            axis=0,
        )


def ghost_trace_increments(handler, uf, lam, eos):
    """``BoundaryHandler.ghost_traces`` as it was: (usum, fsum, lam_max)
    increments, full-size, zero off the boundary faces, every ghost
    state, flux and wavespeed rebuilt on every call."""
    du = np.zeros_like(uf)
    df = np.zeros_like(uf)
    dlam = np.zeros_like(lam)
    for f, spec in handler.table.items():
        sel = handler.mask[:, f]
        if not np.any(sel):
            continue
        axis, _side = FACE_AXIS_SIDE[f]
        u_in = uf[:, sel, f]
        if spec.kind == "outflow":
            ghost = u_in
        elif spec.kind == "wall":
            ghost = u_in.copy()
            ghost[MX + axis] = -ghost[MX + axis]
        else:  # dirichlet
            ghost = np.empty_like(u_in)
            for c in range(NEQ):
                ghost[c] = spec.state[c]
        gflux = euler_flux(ghost, eos, axis)
        rho = ghost[RHO]
        p = eos.pressure(rho, ghost[MX : MX + 3], ghost[ENERGY])
        glam = np.abs(ghost[MX + axis] / rho) + eos.sound_speed(rho, p)
        du[:, sel, f] = ghost
        df[:, sel, f] = gflux
        local = lam[sel, f]
        dlam[sel, f] = np.maximum(glam, local) - local
    return du, df, dlam


def face_wavespeed(eos, uf):
    """|v_n| + a on every face trace, the normal momentum picked with
    ``take_along_axis``."""
    rho = uf[RHO]
    mom = uf[MX : MX + 3]
    p = eos.pressure(rho, mom, uf[ENERGY])
    a = eos.sound_speed(rho, p)
    axis_pick = np.array(FACE_NORMAL_AXIS)
    vn = np.take_along_axis(
        mom, axis_pick.reshape(1, 1, 6, 1, 1), axis=0
    )[0] / rho
    return np.abs(vn) + a


def lax_friedrichs(u_minus, u_plus, f_minus, f_plus, lam):
    return 0.5 * (f_minus + f_plus) - 0.5 * lam * (u_plus - u_minus)


def step_ssprk3(u, rhs, dt):
    u1 = u + dt * rhs(u)
    u2 = 0.75 * u + 0.25 * (u1 + dt * rhs(u1))
    return (u + 2.0 * (u2 + dt * rhs(u2))) / 3.0


class PerFieldCMTSolver(CMTSolver):
    """``CMTSolver`` with one kernel call per component and every stage
    quantity a fresh array allocated where it is computed (the filter,
    when there is one, must be a :class:`PerComponentShockFilter` to
    match)."""

    def _scratch(self, key, shape, dtype, zero=False):
        return (np.zeros if zero else np.empty)(shape, dtype)

    def step(self, state, dt):
        with self._region("update"):
            unew = step_ssprk3(state.u, self.rhs, dt)
            self._charge(
                2.0 * 3 * float(unew.size),
                mem_bytes=32.0 * 3 * float(unew.size),
            )
        filt = self.config.shock_filter
        if filt is not None:
            unew = filt.apply_state(unew)
            self._charge(10.0 * float(unew.size))
        return FlowState(u=unew, eos=state.eos)

    def _pointwise_fluxes(self, u):
        n, nel_b, eos = self.n, u.shape[1], self.eos
        if self.config.dealias:
            dvariant = self.config.kernel_variant
            m = dealias_order(n)
            uf_fine = np.empty((NEQ, nel_b, m, m, m), dtype=u.dtype)
            # (C order: the subset ``u`` of the overlapped schedule is not)
            fx, fy, fz = (np.empty(u.shape, u.dtype) for _ in range(3))
            for c in range(NEQ):
                to_fine(u[c], n, m, out=uf_fine[c], variant=dvariant)
            ffx, ffy, ffz = euler_fluxes(uf_fine, eos)
            for c in range(NEQ):
                to_coarse(ffx[c], n, m, out=fx[c], variant=dvariant)
                to_coarse(ffy[c], n, m, out=fy[c], variant=dvariant)
                to_coarse(ffz[c], n, m, out=fz[c], variant=dvariant)
            self._charge(
                flux_flops(m, nel_b) + 2 * NEQ * dealias_flops(n, nel=nel_b)
            )
        else:
            fx, fy, fz = euler_fluxes(u, eos)
            self._charge(flux_flops(n, nel_b))
        if self.config.viscosity is not None:
            fvx, fvy, fvz = viscous_fluxes(
                u, eos, self.config.viscosity, self.dmat, self.jac,
                variant=self.config.kernel_variant,
            )
            fx -= fvx
            fy -= fvy
            fz -= fvz
            self._charge(viscous_flops(n, nel_b))
        return fx, fy, fz

    def _flux_divergence(self, fx, fy, fz):
        div = np.empty_like(fx)
        for c in range(NEQ):
            flux_divergence(
                fx[c], fy[c], fz[c], self.dmat, self.jac,
                variant=self.config.kernel_variant, out=div[c],
            )
        self._charge(
            divergence_flops(self.n, self.nel, NEQ),
            mem_bytes=NEQ * dkernels.mem_bytes(self.n, self.nel, 3),
        )
        return div

    def _surface_traces(self, u, fx, fy, fz):
        uf, fxf, fyf, fzf = (
            np.stack([full2face(a[c]) for c in range(NEQ)])
            for a in (u, fx, fy, fz)
        )
        ff = np.empty_like(uf)
        ff[:, :, 0:2] = fxf[:, :, 0:2]
        ff[:, :, 2:4] = fyf[:, :, 2:4]
        ff[:, :, 4:6] = fzf[:, :, 4:6]
        lam = face_wavespeed(self.eos, uf)
        self._charge(full2face_flops(self.n, self.nel, ncomp=4 * NEQ + 1))
        return np.concatenate([uf, ff, lam[None]])

    def _surface_traces_into(self, u, fx, fy, fz, elements, uf, ff, lam):
        if len(elements) == 0:
            return
        ufb, fxf, fyf, fzf = (
            np.stack([full2face(a[c, elements]) for c in range(NEQ)])
            for a in (u, fx, fy, fz)
        )
        uf[:, elements] = ufb
        ff[:, elements, 0:2] = fxf[:, :, 0:2]
        ff[:, elements, 2:4] = fyf[:, :, 2:4]
        ff[:, elements, 4:6] = fzf[:, :, 4:6]
        lam[elements] = face_wavespeed(self.eos, ufb)
        self._charge(
            full2face_flops(self.n, len(elements), ncomp=4 * NEQ + 1)
        )

    def _exchange_traces(self, traces):
        uf, ff, lam = self._trace_views(traces)
        h = self.face_handle
        usum, fsum = np.empty_like(uf), np.empty_like(uf)
        for c in range(NEQ):
            gs_op(h, uf[c], op=SUM, site=SITE_FACE_EXCHANGE, out=usum[c])
            gs_op(h, ff[c], op=SUM, site=SITE_FACE_EXCHANGE, out=fsum[c])
        lam_max = gs_op(h, lam, op=MAX, site=SITE_FACE_EXCHANGE)
        return self._fold_ghost_traces(uf, lam, usum, fsum, lam_max)

    def _fold_ghost_traces(self, uf, lam, usum, fsum, lam_max):
        if self.boundary is not None and self.boundary.mask.any():
            du, df, dlam = ghost_trace_increments(
                self.boundary, uf, lam, self.eos
            )
            usum = usum + du
            fsum = fsum + df
            lam_max = lam_max + dlam
        return usum, fsum, lam_max

    def _surface_correction(self, div, uf, ff, usum, fsum, lam_max, out=None):
        sign = np.array(FACE_NORMAL_SIGN).reshape(1, 6, 1, 1)
        fstar = lax_friedrichs(
            u_minus=uf, u_plus=usum - uf, f_minus=ff, f_plus=fsum - ff,
            lam=sign[None] * lam_max[None],
        )
        sat_faces = self._sat_scale.reshape(1, 1, 6, 1, 1) * (fstar - ff)
        rhs = np.negative(div, out=out)
        for c in range(NEQ):
            face2full_add(rhs[c], sat_faces[c])
        self._charge(numflux_flops(self.n, self.nel, ncomp=NEQ))
        return rhs
