"""The ideal-gas closure and the solver away from gamma = 1.4.

Every committed workload runs air (gamma = 1.4); these checks keep the
closure and the solver honest for any ratio of specific heats the
``IdealGas`` constructor accepts.
"""

import numpy as np
import pytest

from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import CMTSolver, IdealGas, SolverConfig, from_primitives

GAMMAS = (1.1, 1.4, 5.0 / 3.0, 4.0, 6.1)


class TestIdealGasAcrossGamma:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_pressure_energy_roundtrip(self, gamma):
        eos = IdealGas(gamma=gamma)
        rho = np.array([1.2, 0.4])
        vel = np.array([[0.3, -2.0], [0.0, 0.5], [-0.1, 1.0]])
        p = np.array([5.0, 0.1])
        e = eos.total_energy(rho, vel, p)
        np.testing.assert_allclose(
            eos.pressure(rho, rho * vel, e), p, rtol=1e-12
        )

    def test_sound_speed_grows_with_gamma(self):
        rho = np.array([1.0])
        p = np.array([1.0])
        speeds = [IdealGas(gamma=g).sound_speed(rho, p)[0] for g in GAMMAS]
        assert speeds == sorted(speeds)
        assert len(set(speeds)) == len(GAMMAS)

    def test_temperature_independent_of_gamma(self):
        rho = np.array([1.3])
        p = np.array([2.6])
        temps = {
            float(IdealGas(gamma=g, r_gas=2.0).temperature(rho, p)[0])
            for g in GAMMAS
        }
        assert temps == {1.0}

    @pytest.mark.parametrize("gamma,r_gas", [
        (1.0, 287.0), (0.5, 287.0), (-1.4, 287.0), (1.4, 0.0), (1.4, -1.0),
    ])
    def test_validation(self, gamma, r_gas):
        with pytest.raises(ValueError):
            IdealGas(gamma=gamma, r_gas=r_gas)


class TestSolverAcrossGamma:
    MESH = BoxMesh(shape=(4, 1, 1), n=5)
    PART = Partition(MESH, proc_shape=(2, 1, 1))

    def _solver(self, comm, eos, **config):
        return CMTSolver(
            comm, self.PART, eos=eos,
            config=SolverConfig(gs_method="pairwise", **config),
        )

    @pytest.mark.parametrize("gamma", (1.4, 5.0 / 3.0, 4.0))
    def test_freestream_preserved(self, gamma):
        eos = IdealGas(gamma=gamma)

        def main(comm):
            solver = self._solver(comm, eos)
            rho = np.full((self.PART.nel_local,) + (self.MESH.n,) * 3, 1.2)
            vel = np.zeros((3,) + rho.shape)
            vel[0] = 0.3
            st = from_primitives(rho, vel, np.full_like(rho, 2.0), eos=eos)
            u0 = st.u.copy()
            st = solver.run(st, nsteps=4, dt=5e-4)
            return float(np.max(np.abs(st.u - u0)))

        assert max(Runtime(nranks=2).run(main)) < 1e-12

    @pytest.mark.parametrize("gamma", (1.4, 4.0))
    def test_conservation_and_stability(self, gamma):
        eos = IdealGas(gamma=gamma)

        def main(comm):
            solver = self._solver(comm, eos, cfl=0.3)
            coords = np.stack(
                [self.MESH.element_nodes(ec)
                 for ec in self.PART.local_elements(comm.rank)],
                axis=1,
            )
            rho = 1.0 + 0.01 * np.sin(2 * np.pi * coords[0])
            vel = np.zeros((3,) + rho.shape)
            st = from_primitives(rho, vel, np.full_like(rho, 2.0), eos=eos)
            before = solver.conserved_totals(st)
            st = solver.run(st, nsteps=15, dt=solver.stable_dt(st))
            return before, solver.conserved_totals(st), st.is_physical()

        before, after, ok = Runtime(nranks=2).run(main)[0]
        assert ok
        for key in before:
            assert after[key] == pytest.approx(before[key], abs=1e-10)

    def test_stable_dt_shrinks_as_gamma_grows(self):
        """Faster sound -> tighter CFL, picked up from the closure."""

        def dt_for(eos):
            def main(comm):
                solver = self._solver(comm, eos)
                rho = np.ones((self.PART.nel_local,) + (self.MESH.n,) * 3)
                st = from_primitives(
                    rho, np.zeros((3,) + rho.shape),
                    np.full_like(rho, 1.0), eos=eos,
                )
                return solver.stable_dt(st)

            return Runtime(nranks=2).run(main)[0]

        dts = [dt_for(IdealGas(gamma=g)) for g in (1.1, 1.4, 4.0)]
        assert dts[0] > dts[1] > dts[2]
