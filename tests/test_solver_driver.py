"""Integration tests of the parallel DG Euler solver."""

import numpy as np
import pytest

from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import (
    CMTSolver,
    RHO,
    SolverConfig,
    from_primitives,
    uniform_state,
)

MESH = BoxMesh(shape=(4, 2, 2), n=5, lengths=(2.0, 1.0, 1.0))
PART = Partition(MESH, proc_shape=(2, 1, 1))


def run_solver(nranks, fn, part=PART):
    return Runtime(nranks=nranks).run(fn)


class TestFreestreamPreservation:
    @pytest.mark.parametrize("gs_method", ["pairwise", "crystal"])
    def test_constant_state_is_steady(self, gs_method):
        def main(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method=gs_method)
            )
            st = uniform_state(
                PART.nel_local, MESH.n, rho=1.3, vel=(0.4, -0.2, 0.1), p=1.7
            )
            u0 = st.u.copy()
            st = solver.run(st, nsteps=4, dt=1e-3)
            return float(np.max(np.abs(st.u - u0)))

        errs = run_solver(2, main)
        assert max(errs) < 1e-12


class TestConservation:
    def test_all_invariants_conserved(self):
        def main(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            coords = np.stack(
                [MESH.element_nodes(ec)
                 for ec in PART.local_elements(comm.rank)],
                axis=1,
            )
            x, y = coords[0], coords[1]
            rho = 1.0 + 0.1 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
            vel = np.zeros((3,) + rho.shape)
            vel[0] = 0.2
            p = 1.0 + 0.05 * np.cos(2 * np.pi * x)
            st = from_primitives(rho, vel, p)
            before = solver.conserved_totals(st)
            dt = solver.stable_dt(st)
            st = solver.run(st, nsteps=20, dt=dt)
            after = solver.conserved_totals(st)
            return before, after, st.is_physical()

        res = run_solver(2, main)
        before, after, physical = res[0]
        assert physical
        for key in before:
            assert after[key] == pytest.approx(before[key], abs=1e-10), key

    def test_monitoring_populates_stats(self):
        def main(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            st = uniform_state(PART.nel_local, MESH.n)
            solver.run(st, nsteps=4, dt=1e-3, monitor_every=2)
            return (
                solver.stats.steps,
                len(solver.stats.mass_history),
                solver.stats.mass_history,
            )

        steps, nmon, masses = run_solver(2, main)[0]
        assert steps == 4
        assert nmon == 2
        assert masses[0] == pytest.approx(masses[1], rel=1e-12)


class TestAcousticPulse:
    def test_pulse_decays_physically_and_propagates(self):
        """A small pressure pulse spreads; LF flux dissipates slightly."""

        def main(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            coords = np.stack(
                [MESH.element_nodes(ec)
                 for ec in PART.local_elements(comm.rank)],
                axis=1,
            )
            x = coords[0]
            eps = 1e-3
            bump = np.exp(-60.0 * (x - 1.0) ** 2)
            rho = 1.0 + eps * bump
            p = 1.0 + 1.4 * eps * bump
            st = from_primitives(rho, np.zeros((3,) + rho.shape), p)
            peak0_local = float(np.max(np.abs(st.u[RHO] - 1.0)))
            dt = solver.stable_dt(st)
            st = solver.run(st, nsteps=40, dt=dt)
            peak1_local = float(np.max(np.abs(st.u[RHO] - 1.0)))
            return peak0_local, peak1_local, st.is_physical(), 40 * dt

        res = run_solver(2, main)
        peak0 = max(r[0] for r in res)
        peak1 = max(r[1] for r in res)
        assert all(r[2] for r in res)
        # The pulse splits into two travelling waves: peak must drop,
        # but the field must not blow up or vanish.
        assert 0.05 * peak0 < peak1 < 1.01 * peak0


class TestSolverConstraintChecks:
    def test_nonperiodic_rejected(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=4, periodic=(False, True, True))
        part = Partition(mesh, proc_shape=(1, 1, 1))

        def main(comm):
            CMTSolver(comm, part)

        with pytest.raises(Exception, match="periodic"):
            Runtime(nranks=1).run(main)

    def test_rank_count_mismatch(self):
        def main(comm):
            CMTSolver(comm, PART)  # PART wants 2 ranks

        with pytest.raises(Exception, match="ranks"):
            Runtime(nranks=1).run(main)

    def test_autotune_runs_when_no_method_given(self):
        def main(comm):
            solver = CMTSolver(comm, PART, config=SolverConfig())
            return solver.face_handle.method

        methods = run_solver(2, main)
        assert methods[0] in ("pairwise", "crystal", "allreduce")
        assert len(set(methods)) == 1


class TestDeterminism:
    def test_same_run_same_bits(self):
        def main(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            st = uniform_state(PART.nel_local, MESH.n, vel=(0.3, 0.0, 0.0))
            st.u[RHO] += 1e-3 * np.sin(np.arange(st.u[RHO].size)).reshape(
                st.u[RHO].shape
            )
            st = solver.run(st, nsteps=5, dt=5e-4)
            return st.u.copy(), comm.time()

        r1 = run_solver(2, main)
        r2 = run_solver(2, main)
        for (u1, t1), (u2, t2) in zip(r1, r2):
            np.testing.assert_array_equal(u1, u2)
            assert t1 == t2  # virtual time deterministic too
