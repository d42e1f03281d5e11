"""Shock capturing: modal transforms, sensor, adaptive filter."""

import numpy as np
import pytest

from repro.kernels.gll import gll_points, gll_weights
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import CMTSolver, RHO, SolverConfig, from_primitives
from repro.solver.shock import (
    ShockFilter,
    exponential_sigma,
    inverse_vandermonde,
    modal_energy_fraction,
    modal_to_nodal,
    nodal_to_modal,
    smoothness_sensor,
    vandermonde,
)

from . import kernel_oracles as oracle


def poly_field(n, nel=2, degree=2):
    x = np.asarray(gll_points(n))
    r = x[:, None, None]
    s = x[None, :, None]
    u = 1.0 + r**degree + 0.3 * r * s
    return np.broadcast_to(u, (nel, n, n, n)).copy()


def rough_field(n, nel=2, seed=0):
    return np.random.default_rng(seed).standard_normal((nel, n, n, n))


class TestModalTransforms:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_roundtrip_identity(self, n):
        u = rough_field(n)
        np.testing.assert_allclose(
            modal_to_nodal(nodal_to_modal(u)), u, atol=1e-10
        )

    @pytest.mark.parametrize("n", range(5, 13))
    def test_transforms_bitwise_equal_three_gemm_oracle(self, n):
        """The library's ``interp_fine`` at ``m = n`` is the local
        three-GEMM chain this module used to carry."""
        u = rough_field(n, nel=3, seed=n)
        c = nodal_to_modal(u)
        assert np.array_equal(
            c, oracle.apply_tensor(np.asarray(inverse_vandermonde(n)), u)
        )
        assert np.array_equal(
            modal_to_nodal(c),
            oracle.apply_tensor(np.asarray(vandermonde(n)), c),
        )

    def test_constant_is_mode_zero(self):
        n = 5
        u = np.full((1, n, n, n), 3.0)
        c = nodal_to_modal(u)
        assert c[0, 0, 0, 0] == pytest.approx(3.0)
        c[0, 0, 0, 0] = 0.0
        np.testing.assert_allclose(c, 0.0, atol=1e-12)

    def test_linear_is_mode_one(self):
        n = 5
        x = np.asarray(gll_points(n))
        u = np.broadcast_to(x[:, None, None], (1, n, n, n)).copy()
        c = nodal_to_modal(u)
        assert c[0, 1, 0, 0] == pytest.approx(1.0)  # P_1 = x
        c[0, 1, 0, 0] = 0.0
        np.testing.assert_allclose(c, 0.0, atol=1e-12)

    def test_vandermonde_values(self):
        v = np.asarray(vandermonde(4))
        np.testing.assert_allclose(v[:, 0], 1.0)  # P_0


class TestSensor:
    def test_smooth_data_reads_low(self):
        s = smoothness_sensor(poly_field(8))
        assert np.all(s < -8.0)

    def test_rough_data_reads_high(self):
        s = smoothness_sensor(rough_field(8))
        assert np.all(s > -2.0)

    def test_discontinuity_reads_high(self):
        n = 8
        x = np.asarray(gll_points(n))
        u = np.where(x[:, None, None] > 0, 1.0, 0.0)
        u = np.broadcast_to(u, (1, n, n, n)).copy()
        s = smoothness_sensor(u)
        # A 1-D step in 3-D data: the x top-mode energy is diluted over
        # the shell, but the sensor still reads far above smooth levels.
        assert s[0] > -3.0

    def test_energy_fraction_bounds(self):
        f = modal_energy_fraction(rough_field(6, nel=5, seed=3))
        assert np.all((0 <= f) & (f <= 1))

    def test_zero_field(self):
        f = modal_energy_fraction(np.zeros((2, 5, 5, 5)))
        np.testing.assert_array_equal(f, 0.0)


class TestExponentialSigma:
    def test_mode_zero_untouched(self):
        sigma = exponential_sigma(8)
        assert sigma[0] == 1.0
        assert sigma[1] == 1.0  # default cutoff 1

    def test_top_mode_strongly_damped(self):
        sigma = exponential_sigma(8)
        assert sigma[-1] == pytest.approx(np.exp(-36.0))

    def test_monotone_decay(self):
        sigma = exponential_sigma(10)
        assert np.all(np.diff(sigma) <= 1e-15)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            exponential_sigma(1)  # no mode above the cutoff


class TestShockFilter:
    def test_smooth_elements_pass_through_exactly(self):
        n = 8
        filt = ShockFilter(n=n)
        u = poly_field(n)
        out = filt.apply(u)
        np.testing.assert_array_equal(out, u)  # bit-identical

    def test_rough_elements_get_smoothed(self):
        n = 8
        filt = ShockFilter(n=n, threshold=-6.0)
        u = rough_field(n)
        out = filt.apply(u)
        before = modal_energy_fraction(u)
        after = modal_energy_fraction(out)
        assert np.all(after < before)

    def test_conservative_per_element(self):
        """Element integrals are invariant under the filter."""
        n = 8
        filt = ShockFilter(n=n, threshold=-10.0)
        u = rough_field(n, nel=4, seed=1)
        out = filt.apply(u)
        w = np.asarray(gll_weights(n))

        def integrals(v):
            return np.einsum("eijk,i,j,k->e", v, w, w, w)

        np.testing.assert_allclose(integrals(out), integrals(u), rtol=1e-12)

    def test_selective_application(self):
        """Only elements above threshold are touched."""
        n = 8
        smooth = poly_field(n, nel=1)
        rough = rough_field(n, nel=1)
        u = np.concatenate([smooth, rough], axis=0)
        filt = ShockFilter(n=n, threshold=-6.0)
        out = filt.apply(u)
        np.testing.assert_array_equal(out[0], u[0])
        assert np.max(np.abs(out[1] - u[1])) > 1e-8

    def test_apply_state_senses_on_density(self):
        n = 6
        filt = ShockFilter(n=n, threshold=-6.0)
        state = np.stack([rough_field(n, nel=2, seed=c) for c in range(5)])
        out = filt.apply_state(state)
        assert out.shape == state.shape

    def test_wrong_n_rejected(self):
        filt = ShockFilter(n=6)
        with pytest.raises(ValueError):
            filt.apply(np.zeros((1, 5, 5, 5)))


class TestShockCapturingEndToEnd:
    """A large-amplitude wave steepens into a shock; the filter keeps
    the solution physical where the bare scheme rings itself to death.
    """

    MESH = BoxMesh(shape=(8, 1, 1), n=8, lengths=(2.0, 1.0, 1.0))
    PART = Partition(MESH, proc_shape=(2, 1, 1))

    def _run(self, use_filter, nsteps=220):
        mesh, part = self.MESH, self.PART

        def main(comm):
            filt = (
                ShockFilter(n=mesh.n, threshold=-4.0, ramp=1.5)
                if use_filter else None
            )
            solver = CMTSolver(
                comm, part,
                config=SolverConfig(
                    gs_method="pairwise", cfl=0.25, shock_filter=filt
                ),
            )
            coords = np.stack(
                [mesh.element_nodes(ec)
                 for ec in part.local_elements(comm.rank)],
                axis=1,
            )
            x = coords[0]
            # Strongly nonlinear acoustic pulse -> steepens into a shock.
            amp = 0.4
            bump = amp * np.sin(np.pi * x)
            rho = 1.0 + bump
            p = (1.0 + bump) ** 1.4          # isentropic relation
            vel = np.zeros((3,) + rho.shape)
            vel[0] = 2.0 / 0.4 * (
                np.sqrt(1.4 * p / rho) - np.sqrt(1.4)
            )  # simple-wave velocity
            state = from_primitives(rho, vel, p)
            mass0 = solver.integrate(state.u[RHO])
            ok = True
            dt = solver.stable_dt(state)
            for _ in range(nsteps):
                state = solver.step(state, dt)
                if not state.is_physical() or not np.all(
                    np.isfinite(state.u)
                ):
                    ok = False
                    break
            mass1 = solver.integrate(state.u[RHO]) if ok else np.nan
            umax = float(np.max(np.abs(state.u))) if ok else np.inf
            return ok, mass0, mass1, umax

        return Runtime(nranks=2).run(main)

    def test_filtered_run_survives_and_conserves(self):
        res = self._run(use_filter=True)
        ok, m0, m1, umax = res[0]
        assert ok
        assert m1 == pytest.approx(m0, abs=1e-9)
        assert umax < 50.0

    def test_filter_improves_robustness(self):
        """Bare vs filtered on the steepening wave: the filtered run
        must stay physical at least as long, and strictly healthier."""
        bare = self._run(use_filter=False)
        filt = self._run(use_filter=True)
        bare_ok = bare[0][0]
        filt_ok = filt[0][0]
        assert filt_ok
        if bare_ok:
            # If the bare run survives, it must exhibit at least as
            # much extreme-value growth as the filtered one.
            assert bare[0][3] >= filt[0][3] * 0.99
