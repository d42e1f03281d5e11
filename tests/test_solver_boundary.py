"""Physical boundary conditions: walls, outflow, Dirichlet."""

import numpy as np
import pytest

from repro.lb import ElementAssignment
from repro.mesh import FACE_AXIS_SIDE, BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import (
    CMTSolver,
    RHO,
    SolverConfig,
    from_primitives,
    uniform_state,
)
from repro.solver.boundary import (
    BoundarySpec,
    BoundaryHandler,
)

# x-walled channel, periodic in y/z.
MESH = BoxMesh(shape=(4, 2, 2), n=6, periodic=(False, True, True))
PART = Partition(MESH, proc_shape=(2, 1, 1))
XBC = {0: BoundarySpec("wall"), 1: BoundarySpec("wall")}


class TestBoundarySpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown boundary"):
            BoundarySpec("teleport")
        with pytest.raises(ValueError, match="5-component"):
            BoundarySpec("dirichlet")
        with pytest.raises(ValueError, match="no state"):
            BoundarySpec("wall", state=(1, 0, 0, 0, 1))


class TestBoundaryHandler:
    def test_mask_marks_x_extremes_only(self):
        def main(comm):
            h = BoundaryHandler(PART, comm.rank, XBC)
            return h.mask.copy()

        masks = Runtime(nranks=2).run(main)
        # Rank 0 owns x in [0, 2): its x- faces (face 0) of ix=0
        # elements are boundary; rank 1 owns the x+ side.
        assert masks[0][:, 0].sum() == 4   # 2x2 elements at ix=0
        assert masks[0][:, 1].sum() == 0
        assert masks[1][:, 1].sum() == 4
        # y/z faces periodic: never boundary.
        for m in masks:
            assert m[:, 2:].sum() == 0

    def test_missing_bc_rejected(self):
        def main(comm):
            BoundaryHandler(PART, comm.rank, {0: BoundarySpec("wall")})

        with pytest.raises(Exception, match="no boundary condition"):
            Runtime(nranks=2).run(main)

    def test_requires_config(self):
        def main(comm):
            CMTSolver(comm, PART)  # no boundaries given

        with pytest.raises(Exception, match="non-periodic"):
            Runtime(nranks=2).run(main)


#: A wall on every face, so any mask can be built.
ALL_WALLS = {f: BoundarySpec("wall") for f in range(6)}


def reference_mask(mesh, coords):
    """``(nel, 6)``: a face is physical iff the element one step across
    it lies outside a non-periodic axis."""
    mask = np.zeros((len(coords), 6), dtype=bool)
    for e, c in enumerate(coords):
        for f, (axis, side) in enumerate(FACE_AXIS_SIDE):
            across = c[axis] + (1 if side else -1)
            outside = not 0 <= across < mesh.shape[axis]
            mask[e, f] = outside and not mesh.periodic[axis]
    return mask


class TestBoundaryMask:
    """The handler's physical-face mask on both element layouts."""

    def test_periodic_box_has_no_boundary(self):
        part = Partition(BoxMesh(shape=(4, 4, 4), n=3), proc_shape=(2, 2, 2))
        mask = BoundaryHandler(part, 0, {}).mask
        assert mask.shape == (part.nel_local, 6) and not mask.any()

    def test_nonperiodic_corner_rank(self):
        mesh = BoxMesh(shape=(4, 4, 4), n=3, periodic=(False,) * 3)
        part = Partition(mesh, proc_shape=(2, 2, 2))
        mask = BoundaryHandler(part, 0, ALL_WALLS).mask
        # Rank 0's 2x2x2 brick sits in the low corner: 3 exposed low
        # faces of 4 elements each, no high face.
        assert mask.sum(axis=0).tolist() == [4, 0, 4, 0, 4, 0]
        assert np.array_equal(
            mask, reference_mask(mesh, part.local_elements(0))
        )

    def test_axis_of_extent_one(self):
        """One element across a non-periodic axis has both faces on the
        boundary; across a periodic one it is its own neighbour."""
        walled = BoxMesh(shape=(2, 1, 1), n=3, periodic=(True, False, True))
        mask = BoundaryHandler(Partition(walled, (1, 1, 1)), 0, ALL_WALLS).mask
        assert mask.tolist() == [[False, False, True, True, False, False]] * 2
        wrapped = Partition(BoxMesh(shape=(2, 1, 1), n=3), (1, 1, 1))
        assert not BoundaryHandler(wrapped, 0, {}).mask.any()

    @pytest.mark.parametrize("periodic", [(False, True, False), (False,) * 3])
    def test_element_assignment(self, periodic):
        mesh = BoxMesh(shape=(3, 2, 2), n=3, periodic=periodic)
        owner = np.random.default_rng(4).integers(0, 3, mesh.nelgt)
        owner[:3] = [0, 1, 2]  # every rank owns an element
        asg = ElementAssignment(mesh, 3, owner)
        for rank in range(3):
            coords = asg.local_elements(rank)
            assert np.array_equal(
                BoundaryHandler(asg, rank, ALL_WALLS).mask,
                reference_mask(mesh, coords),
            )


class TestWalledBox:
    def _solver(self, comm):
        return CMTSolver(
            comm, PART,
            config=SolverConfig(gs_method="pairwise", boundaries=XBC),
        )

    def test_static_state_is_steady(self):
        """No flow + walls: exact steady state."""

        def main(comm):
            solver = self._solver(comm)
            st = uniform_state(PART.nel_local, MESH.n, rho=1.0,
                               vel=(0.0, 0.0, 0.0), p=1.0)
            u0 = st.u.copy()
            st = solver.run(st, nsteps=5, dt=5e-4)
            return float(np.max(np.abs(st.u - u0)))

        assert max(Runtime(nranks=2).run(main)) < 1e-12

    def test_bouncing_wave_conserves_mass_and_energy(self):
        """A pressure pulse reflecting off walls keeps mass/energy."""

        def main(comm):
            solver = self._solver(comm)
            coords = np.stack(
                [MESH.element_nodes(ec)
                 for ec in PART.local_elements(comm.rank)],
                axis=1,
            )
            x = coords[0]
            bump = 1e-2 * np.exp(-40 * (x - 0.5) ** 2)
            st = from_primitives(
                1.0 + bump, np.zeros((3,) + x.shape), 1.0 + 1.4 * bump
            )
            before = solver.conserved_totals(st)
            dt = solver.stable_dt(st)
            st = solver.run(st, nsteps=60, dt=dt)
            after = solver.conserved_totals(st)
            return before, after, st.is_physical()

        before, after, ok = Runtime(nranks=2).run(main)[0]
        assert ok
        assert after["rho"] == pytest.approx(before["rho"], abs=1e-10)
        assert after["E"] == pytest.approx(before["E"], abs=1e-10)
        # y/z momenta stay zero; x momentum moves (wall forces).
        assert abs(after["rho_v"]) < 1e-10
        assert abs(after["rho_w"]) < 1e-10

    def test_wall_reflects_incoming_flow(self):
        """Uniform inflow against a wall builds pressure, not leakage."""

        def main(comm):
            solver = self._solver(comm)
            st = uniform_state(PART.nel_local, MESH.n, rho=1.0,
                               vel=(0.05, 0.0, 0.0), p=1.0)
            mass0 = solver.integrate(st.u[RHO])
            dt = solver.stable_dt(st)
            st = solver.run(st, nsteps=30, dt=dt)
            mass1 = solver.integrate(st.u[RHO])
            return mass0, mass1, st.is_physical()

        m0, m1, ok = Runtime(nranks=2).run(main)[0]
        assert ok
        assert m1 == pytest.approx(m0, abs=1e-10)  # walls are sealed


class TestOutflow:
    def test_uniform_throughflow_is_steady(self):
        """Uniform flow through open ends: exact steady state."""
        bc = {0: BoundarySpec("outflow"), 1: BoundarySpec("outflow")}

        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(gs_method="pairwise", boundaries=bc),
            )
            st = uniform_state(PART.nel_local, MESH.n, rho=1.0,
                               vel=(0.05, 0.0, 0.0), p=1.0)
            u0 = st.u.copy()
            st = solver.run(st, nsteps=5, dt=5e-4)
            return float(np.max(np.abs(st.u - u0)))

        assert max(Runtime(nranks=2).run(main)) < 1e-12

    def test_pulse_starts_leaving_through_open_ends(self):
        """Early transient: mass decreases once waves reach the ends.

        (Zero-gradient outflow is only well-posed for supersonic exit;
        long subsonic runs drift — the documented suck-out — so this
        test checks the short transient and the Dirichlet far-field
        test below covers long-time absorption.)
        """
        bc = {0: BoundarySpec("outflow"), 1: BoundarySpec("outflow")}

        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(gs_method="pairwise", boundaries=bc),
            )
            coords = np.stack(
                [MESH.element_nodes(ec)
                 for ec in PART.local_elements(comm.rank)],
                axis=1,
            )
            x = coords[0]
            bump = 5e-2 * np.exp(-40 * (x - 0.5) ** 2)
            st = from_primitives(
                1.0 + bump, np.zeros((3,) + x.shape), 1.0 + 1.4 * bump
            )
            mass0 = solver.integrate(st.u[RHO])
            dt = solver.stable_dt(st)
            st = solver.run(st, nsteps=150, dt=dt)
            mass1 = solver.integrate(st.u[RHO])
            return mass0, mass1, st.is_physical()

        m0, m1, ok = Runtime(nranks=2).run(main)[0]
        assert ok
        assert m1 < m0  # mass is leaving


class TestFarfieldAbsorption:
    def test_pulse_absorbed_by_dirichlet_farfield(self):
        """An ambient-state far field absorbs the pulse almost fully."""
        e_amb = 1.0 / 0.4
        bc = {
            0: BoundarySpec("dirichlet", state=(1.0, 0, 0, 0, e_amb)),
            1: BoundarySpec("dirichlet", state=(1.0, 0, 0, 0, e_amb)),
        }

        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(gs_method="pairwise", boundaries=bc),
            )
            coords = np.stack(
                [MESH.element_nodes(ec)
                 for ec in PART.local_elements(comm.rank)],
                axis=1,
            )
            x = coords[0]
            bump = 5e-2 * np.exp(-40 * (x - 0.5) ** 2)
            st = from_primitives(
                1.0 + bump, np.zeros((3,) + x.shape), 1.0 + 1.4 * bump
            )
            excess0 = solver.integrate(st.u[RHO]) - 1.0
            dt = solver.stable_dt(st)
            st = solver.run(st, nsteps=400, dt=dt)
            excess1 = solver.integrate(st.u[RHO]) - 1.0
            vmax = float(np.max(np.abs(st.velocity())))
            return excess0, excess1, vmax, st.is_physical()

        e0, e1, vmax, ok = Runtime(nranks=2).run(main)[0]
        assert ok
        assert e0 > 0.01
        assert abs(e1) < 0.05 * e0   # pulse has left the box
        assert vmax < 1e-2           # and the box is quiescent again


class TestDirichlet:
    def test_matching_farfield_is_steady(self):
        """Dirichlet ghost equal to the interior state changes nothing."""
        from repro.solver import IdealGas

        eos = IdealGas()
        rho, velx, p = 1.0, 0.1, 1.0
        e = p / (eos.gamma - 1.0) + 0.5 * rho * velx**2
        bc = {
            0: BoundarySpec("dirichlet", state=(rho, rho * velx, 0, 0, e)),
            1: BoundarySpec("dirichlet", state=(rho, rho * velx, 0, 0, e)),
        }

        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(gs_method="pairwise", boundaries=bc),
            )
            st = uniform_state(PART.nel_local, MESH.n, rho=rho,
                               vel=(velx, 0.0, 0.0), p=p)
            u0 = st.u.copy()
            st = solver.run(st, nsteps=5, dt=5e-4)
            return float(np.max(np.abs(st.u - u0)))

        assert max(Runtime(nranks=2).run(main)) < 1e-11
