"""Viscous (Navier-Stokes) terms: stress, conduction, decay physics."""

import numpy as np
import pytest

from repro.kernels import derivative_matrix
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import (
    CMTSolver,
    ENERGY,
    IdealGas,
    MX,
    RHO,
    SolverConfig,
    from_primitives,
    uniform_state,
)
from repro.solver.viscous import (
    ViscousModel,
    velocity_and_temperature,
    viscous_fluxes,
)

MESH = BoxMesh(shape=(4, 1, 1), n=7)
PART = Partition(MESH, proc_shape=(2, 1, 1))


class TestViscousModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ViscousModel(mu=-1.0)

    def test_kappa(self):
        eos = IdealGas(gamma=1.4, r_gas=287.0)
        model = ViscousModel(mu=2.0)
        cp = 1.4 * 287.0 / 0.4
        assert model.kappa(eos) == pytest.approx(2.0 * cp / 0.72)


class TestViscousFluxes:
    def _mesh_fields(self):
        n = 6
        mesh = BoxMesh(shape=(2, 1, 1), n=n, lengths=(2.0, 1.0, 1.0))
        part = Partition(mesh, proc_shape=(1, 1, 1))
        coords = np.stack(
            [mesh.element_nodes(ec) for ec in part.local_elements(0)],
            axis=1,
        )
        return mesh, coords, n

    def test_zero_for_uniform_state(self):
        st = uniform_state(2, 6, vel=(0.5, -0.2, 0.1))
        dmat = np.asarray(derivative_matrix(6))
        fv = viscous_fluxes(
            st.u, st.eos, ViscousModel(mu=0.1), dmat, (1.0, 1.0, 1.0)
        )
        for f in fv:
            np.testing.assert_allclose(f, 0.0, atol=1e-10)

    def test_pure_shear_stress(self):
        """v_y = s * x: tau_xy = mu * s, all normal stresses zero."""
        mesh, coords, n = self._mesh_fields()
        s = 0.3
        rho = np.ones(coords.shape[1:])
        vel = np.zeros((3,) + rho.shape)
        vel[1] = s * coords[0]
        # Constant T: set p = rho * R * T0 with T0 = 1/R.
        eos = IdealGas(gamma=1.4, r_gas=1.0)
        st = from_primitives(rho, vel, np.ones_like(rho), eos=eos)
        dmat = np.asarray(derivative_matrix(n))
        mu = 0.05
        fvx, fvy, fvz = viscous_fluxes(
            st.u, eos, ViscousModel(mu=mu), dmat, mesh.jacobian
        )
        # x-flux of y-momentum = tau_yx = mu s.
        np.testing.assert_allclose(fvx[MX + 1], mu * s, atol=1e-9)
        # no normal stress, no mass flux
        np.testing.assert_allclose(fvx[MX], 0.0, atol=1e-9)
        np.testing.assert_allclose(fvx[RHO], 0.0)
        # energy flux on the x face: v . tau_x = v_y * tau_yx.
        np.testing.assert_allclose(
            fvx[ENERGY], vel[1] * mu * s, atol=1e-8
        )

    def test_dilatation_uses_stokes_hypothesis(self):
        """v_x = s * x: tau_xx = (2 - 2/3) mu s = 4/3 mu s."""
        mesh, coords, n = self._mesh_fields()
        s = 0.2
        rho = np.ones(coords.shape[1:])
        vel = np.zeros((3,) + rho.shape)
        vel[0] = s * coords[0]
        eos = IdealGas(gamma=1.4, r_gas=1.0)
        st = from_primitives(rho, vel, np.ones_like(rho), eos=eos)
        dmat = np.asarray(derivative_matrix(n))
        mu = 0.05
        fvx, fvy, fvz = viscous_fluxes(
            st.u, eos, ViscousModel(mu=mu), dmat, mesh.jacobian
        )
        np.testing.assert_allclose(
            fvx[MX], (4.0 / 3.0) * mu * s, atol=1e-8
        )
        # Lateral normal stress: -2/3 mu s.
        np.testing.assert_allclose(
            fvy[MX + 1], -(2.0 / 3.0) * mu * s, atol=1e-8
        )

    def test_heat_flux_direction(self):
        """Energy flux carries +kappa dT/dx (flux is *subtracted*)."""
        mesh, coords, n = self._mesh_fields()
        rho = np.ones(coords.shape[1:])
        eos = IdealGas(gamma=1.4, r_gas=1.0)
        # Linear temperature in x: p = rho R T = T.
        temp = 1.0 + 0.1 * coords[0]
        st = from_primitives(rho, np.zeros((3,) + rho.shape), temp,
                             eos=eos)
        dmat = np.asarray(derivative_matrix(n))
        model = ViscousModel(mu=0.05)
        fvx, _, _ = viscous_fluxes(st.u, eos, model, dmat, mesh.jacobian)
        np.testing.assert_allclose(
            fvx[ENERGY], model.kappa(eos) * 0.1, atol=1e-7
        )

    def test_velocity_and_temperature(self):
        st = uniform_state(1, 5, rho=2.0, vel=(1.0, 0.0, 0.0), p=4.0)
        vel, temp = velocity_and_temperature(st.u, st.eos)
        np.testing.assert_allclose(vel[0], 1.0)
        np.testing.assert_allclose(temp, 4.0 / (2.0 * st.eos.r_gas))


class TestNavierStokesSolver:
    def test_freestream_preserved(self):
        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(
                    gs_method="pairwise",
                    viscosity=ViscousModel(mu=1e-3),
                ),
            )
            st = uniform_state(PART.nel_local, MESH.n, vel=(0.3, 0.1, 0.0))
            u0 = st.u.copy()
            st = solver.run(st, nsteps=4, dt=2e-4)
            return float(np.max(np.abs(st.u - u0)))

        assert max(Runtime(nranks=2).run(main)) < 1e-11

    def test_conservation(self):
        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(
                    gs_method="pairwise",
                    viscosity=ViscousModel(mu=5e-4),
                ),
            )
            coords = np.stack(
                [MESH.element_nodes(ec)
                 for ec in PART.local_elements(comm.rank)],
                axis=1,
            )
            x = coords[0]
            rho = np.ones_like(x)
            vel = np.zeros((3,) + x.shape)
            vel[1] = 0.05 * np.sin(2 * np.pi * x)
            st = from_primitives(rho, vel, np.ones_like(x))
            before = solver.conserved_totals(st)
            st = solver.run(st, nsteps=15, dt=2e-4)
            after = solver.conserved_totals(st)
            return before, after, st.is_physical()

        before, after, ok = Runtime(nranks=2).run(main)[0]
        assert ok
        for key in before:
            assert after[key] == pytest.approx(before[key], abs=1e-10)

    def test_shear_wave_decays_at_physical_rate(self):
        """u_y = U0 sin(2 pi x) decays like exp(-nu k^2 t)."""
        mu = 2e-3
        u0_amp = 1e-3
        k = 2 * np.pi  # domain length 1

        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(
                    gs_method="pairwise",
                    viscosity=ViscousModel(mu=mu),
                ),
            )
            coords = np.stack(
                [MESH.element_nodes(ec)
                 for ec in PART.local_elements(comm.rank)],
                axis=1,
            )
            x = coords[0]
            rho = np.ones_like(x)
            vel = np.zeros((3,) + x.shape)
            vel[1] = u0_amp * np.sin(k * x)
            st = from_primitives(rho, vel, np.ones_like(x))
            dt = 2e-4
            nsteps = 400
            st = solver.run(st, nsteps=nsteps, dt=dt)
            amp_local = float(np.max(np.abs(st.velocity()[1])))
            from repro.mpi import MAX

            amp = comm.allreduce(amp_local, op=MAX)
            return amp, nsteps * dt

        amp, t = Runtime(nranks=2).run(main)[0]
        expect = u0_amp * np.exp(-mu * k * k * t)
        assert amp == pytest.approx(expect, rel=0.05)

    def test_more_viscosity_decays_faster(self):
        def amp_for(mu):
            def main(comm):
                solver = CMTSolver(
                    comm, PART,
                    config=SolverConfig(
                        gs_method="pairwise",
                        viscosity=ViscousModel(mu=mu) if mu else None,
                    ),
                )
                coords = np.stack(
                    [MESH.element_nodes(ec)
                     for ec in PART.local_elements(comm.rank)],
                    axis=1,
                )
                x = coords[0]
                rho = np.ones_like(x)
                vel = np.zeros((3,) + x.shape)
                vel[1] = 1e-3 * np.sin(2 * np.pi * x)
                st = from_primitives(rho, vel, np.ones_like(x))
                st = solver.run(st, nsteps=150, dt=2e-4)
                from repro.mpi import MAX

                return comm.allreduce(
                    float(np.max(np.abs(st.velocity()[1]))), op=MAX
                )

            return Runtime(nranks=2).run(main)[0]

        assert amp_for(5e-3) < amp_for(1e-3) < amp_for(0.0) + 1e-12
