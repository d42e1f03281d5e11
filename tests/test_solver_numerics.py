"""Numerical flux, flux divergence, and RK steppers."""

import numpy as np
import pytest

from repro.kernels import Workspace, derivative_matrix, gll_points
from repro.solver import (
    cfl_dt,
    flux_divergence,
    gradient_physical,
    lax_friedrichs,
    step_ssprk3,
)


class TestNumericalFlux:
    def test_lf_reduces_to_central_when_continuous(self):
        u = np.array([2.0])
        f = np.array([5.0])
        out = lax_friedrichs(u, u, f, f, lam=np.array([10.0]))
        assert out[0] == pytest.approx(5.0)

    def test_lf_dissipation_sign(self):
        um, up = np.array([0.0]), np.array([1.0])
        fm, fp = np.array([0.0]), np.array([0.0])
        out = lax_friedrichs(um, up, fm, fp, lam=np.array([2.0]))
        assert out[0] == pytest.approx(-1.0)  # -lam/2 (up-um)

    def test_symmetry_between_sides(self):
        """Both elements compute the same f* (conservation)."""
        rng = np.random.default_rng(0)
        um, up = rng.standard_normal(4), rng.standard_normal(4)
        fm, fp = rng.standard_normal(4), rng.standard_normal(4)
        lam = np.abs(rng.standard_normal(4))
        a = lax_friedrichs(um, up, fm, fp, lam)
        b = lax_friedrichs(up, um, fp, fm, -lam)  # other side's view
        np.testing.assert_allclose(a, b, rtol=1e-14)


class TestFluxDivergence:
    def test_linear_flux_exact(self):
        """div(x, y, z) = 3 exactly."""
        n = 5
        x = np.asarray(gll_points(n))
        d = np.asarray(derivative_matrix(n))
        r = x[:, None, None]
        s = x[None, :, None]
        t = x[None, None, :]
        fx = np.broadcast_to(r, (2, n, n, n)).copy()
        fy = np.broadcast_to(s, (2, n, n, n)).copy()
        fz = np.broadcast_to(t, (2, n, n, n)).copy()
        div = flux_divergence(fx, fy, fz, d, jac=(1.0, 1.0, 1.0))
        np.testing.assert_allclose(div, 3.0, atol=1e-11)

    def test_jacobian_scaling(self):
        n = 4
        x = np.asarray(gll_points(n))
        d = np.asarray(derivative_matrix(n))
        fx = np.broadcast_to(x[:, None, None], (1, n, n, n)).copy()
        zero = np.zeros_like(fx)
        div = flux_divergence(fx, zero, zero, d, jac=(2.0, 1.0, 1.0))
        np.testing.assert_allclose(div, 2.0, atol=1e-12)

    def test_variants_agree(self):
        n = 4
        rng = np.random.default_rng(1)
        d = np.asarray(derivative_matrix(n))
        f = [rng.standard_normal((3, n, n, n)) for _ in range(3)]
        a = flux_divergence(*f, d, jac=(1.0, 2.0, 3.0), variant="fused")
        b = flux_divergence(*f, d, jac=(1.0, 2.0, 3.0), variant="basic")
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_gradient_physical(self):
        n = 5
        x = np.asarray(gll_points(n))
        d = np.asarray(derivative_matrix(n))
        u = np.broadcast_to(
            x[:, None, None] * x[None, :, None], (1, n, n, n)
        ).copy()  # u = r*s
        gx, gy, gz = gradient_physical(u, d, jac=(2.0, 3.0, 1.0))
        np.testing.assert_allclose(
            gx, 2.0 * np.broadcast_to(x[None, None, :, None], gx.shape),
            atol=1e-11,
        )
        np.testing.assert_allclose(gz, 0.0, atol=1e-11)


class TestRKSteppers:
    """Convergence order on u' = -u (exact: exp(-t))."""

    def _integrate(self, stepper, dt, t_end=1.0):
        u = np.array([1.0])
        steps = int(round(t_end / dt))
        for _ in range(steps):
            u = stepper(u, lambda v: -v, dt, Workspace())
        return u[0]

    def test_convergence_order(self):
        exact = np.exp(-1.0)
        e1 = abs(self._integrate(step_ssprk3, 0.1) - exact)
        e2 = abs(self._integrate(step_ssprk3, 0.05) - exact)
        observed = np.log2(e1 / e2)
        assert observed == pytest.approx(3, abs=0.25)

    @pytest.mark.parametrize("z", [-2.5, -1.0, -0.25, 0.0, 0.5])
    def test_one_step_is_the_stability_polynomial(self, z):
        """On u' = lambda u one SSP-RK3 step multiplies u by
        1 + z + z^2/2 + z^3/6, z = lambda dt."""
        u = np.array([1.0, -2.0, 0.5])
        out = step_ssprk3(u, lambda v: z * v, 1.0, Workspace())
        np.testing.assert_allclose(
            out, (1.0 + z + z * z / 2 + z ** 3 / 6) * u, rtol=1e-14
        )

    def test_linearity_preserved(self):
        """Steppers preserve array shape and dtype."""
        u = np.zeros((5, 2, 3, 3, 3))
        out = step_ssprk3(u, lambda v: v * 0.0, 0.1, Workspace())
        assert out.shape == u.shape


class TestCflDt:
    def test_scaling(self):
        dt1 = cfl_dt(max_speed=1.0, dx_min=1.0, n=4)
        dt2 = cfl_dt(max_speed=2.0, dx_min=1.0, n=4)
        assert dt2 == pytest.approx(dt1 / 2)
        dt3 = cfl_dt(max_speed=1.0, dx_min=1.0, n=8)
        assert dt3 == pytest.approx(dt1 / 4)

    def test_linear_in_cfl_and_dx(self):
        base = cfl_dt(max_speed=1.5, dx_min=0.2, n=5, cfl=0.4)
        assert cfl_dt(max_speed=1.5, dx_min=0.2, n=5, cfl=0.2) == (
            pytest.approx(base / 2)
        )
        assert cfl_dt(max_speed=1.5, dx_min=0.6, n=5, cfl=0.4) == (
            pytest.approx(3 * base)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            cfl_dt(max_speed=0.0, dx_min=1.0, n=4)
