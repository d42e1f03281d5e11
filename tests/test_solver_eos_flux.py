"""Equation of state and Euler flux functions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import (
    ENERGY,
    IdealGas,
    MX,
    NEQ,
    RHO,
    euler_flux,
    euler_fluxes,
    from_primitives,
    uniform_state,
    wavespeed,
)


class TestIdealGas:
    def test_pressure_energy_roundtrip(self):
        eos = IdealGas(gamma=1.4)
        rho = np.array([1.0, 2.0])
        vel = np.array([[0.5, -1.0], [0.0, 0.2], [1.0, 0.0]])
        p = np.array([1.0, 5.0])
        e = eos.total_energy(rho, vel, p)
        mom = rho * vel
        np.testing.assert_allclose(eos.pressure(rho, mom, e), p, rtol=1e-13)

    def test_sound_speed(self):
        eos = IdealGas(gamma=1.4)
        a = eos.sound_speed(np.array([1.0]), np.array([1.0]))
        assert a[0] == pytest.approx(np.sqrt(1.4))

    def test_temperature(self):
        eos = IdealGas(gamma=1.4, r_gas=287.0)
        t = eos.temperature(np.array([1.0]), np.array([287.0]))
        assert t[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IdealGas(gamma=1.0)
        with pytest.raises(ValueError):
            IdealGas(r_gas=0.0)

    @given(
        st.floats(0.1, 10.0), st.floats(-3.0, 3.0), st.floats(0.1, 10.0)
    )
    @settings(max_examples=30)
    def test_positivity_property(self, rho, u, p):
        eos = IdealGas()
        rho_a = np.array([rho])
        vel = np.array([[u], [0.0], [0.0]])
        e = eos.total_energy(rho_a, vel, np.array([p]))
        back = eos.pressure(rho_a, rho_a * vel, e)
        assert back[0] == pytest.approx(p, rel=1e-10)


def point_state(rho, vel, p):
    """A single-point (nel=1, N=1... shaped) state for flux checks."""
    shape = (1, 1, 1, 1)
    rho_a = np.full(shape, rho)
    vel_a = np.array(vel).reshape(3, 1, 1, 1, 1) * np.ones((3,) + shape)
    p_a = np.full(shape, p)
    return from_primitives(rho_a, vel_a, p_a)


def flat(arr):
    return arr.reshape(arr.shape[0], -1)


class TestEulerFlux:
    def _state(self):
        return point_state(1.0, (2.0, 3.0, -1.0), 5.0)

    def test_mass_flux_is_momentum(self):
        st_ = self._state()
        for axis in range(3):
            f = euler_flux(st_.u, st_.eos, axis)
            np.testing.assert_allclose(f[RHO], st_.u[MX + axis])

    def test_momentum_flux_includes_pressure(self):
        st_ = self._state()
        f = euler_flux(st_.u, st_.eos, 0)
        # f_mx = rho u^2 + p = 1*4 + 5 = 9
        assert flat(f)[MX][0] == pytest.approx(9.0)
        # f_my = rho u v = 6
        assert flat(f)[MX + 1][0] == pytest.approx(6.0)

    def test_energy_flux(self):
        st_ = self._state()
        f = euler_flux(st_.u, st_.eos, 0)
        e = flat(st_.u)[ENERGY][0]
        assert flat(f)[ENERGY][0] == pytest.approx((e + 5.0) * 2.0)

    def test_euler_fluxes_matches_individual(self):
        st_ = self._state()
        fx, fy, fz = euler_fluxes(st_.u, st_.eos)
        for axis, f in enumerate((fx, fy, fz)):
            np.testing.assert_allclose(
                f, euler_flux(st_.u, st_.eos, axis), rtol=1e-14
            )

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            euler_flux(self._state().u, IdealGas(), 3)

    def test_zero_velocity_flux_is_pressure_only(self):
        st_ = point_state(2.0, (0.0, 0.0, 0.0), 3.0)
        f = euler_flux(st_.u, st_.eos, 1)
        np.testing.assert_allclose(f[RHO], 0.0)
        assert flat(f)[MX + 1][0] == pytest.approx(3.0)
        np.testing.assert_allclose(f[ENERGY], 0.0)


class TestWavespeed:
    def test_formula(self):
        st_ = point_state(1.0, (3.0, 0.0, 0.0), 1.0)
        lam = wavespeed(st_.u, st_.eos, 0)
        assert lam.ravel()[0] == pytest.approx(3.0 + np.sqrt(1.4))

    def test_direction_dependence(self):
        st_ = point_state(1.0, (3.0, 0.0, 0.0), 1.0)
        assert wavespeed(st_.u, st_.eos, 0).ravel()[0] > wavespeed(
            st_.u, st_.eos, 1
        ).ravel()[0]


class TestFlowState:
    def test_uniform_state_fields(self):
        st_ = uniform_state(4, 3, rho=1.5, vel=(1.0, 0.0, 0.0), p=2.0)
        assert st_.u.shape == (NEQ, 4, 3, 3, 3)
        np.testing.assert_allclose(st_.u[RHO], 1.5)
        np.testing.assert_allclose(st_.pressure(), 2.0, rtol=1e-13)
        np.testing.assert_allclose(st_.velocity()[0], 1.0)
        assert st_.is_physical()

    def test_max_wavespeed(self):
        st_ = uniform_state(1, 3, rho=1.0, vel=(0.5, 0.0, 0.0), p=1.0)
        assert st_.max_wavespeed() == pytest.approx(0.5 + np.sqrt(1.4))

    def test_unphysical_detected(self):
        st_ = uniform_state(1, 3)
        st_.u[RHO] *= -1
        assert not st_.is_physical()

    def test_copy_is_deep(self):
        a = uniform_state(1, 3)
        b = a.copy()
        b.u[RHO] += 1
        assert a.u[RHO][0, 0, 0, 0] == 1.0

    def test_shape_validation(self):
        from repro.solver.state import FlowState

        with pytest.raises(ValueError):
            FlowState(u=np.zeros((4, 1, 3, 3, 3)), eos=IdealGas())
