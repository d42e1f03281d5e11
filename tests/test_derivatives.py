"""The derivative kernel: variant agreement, exactness, properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import derivatives as dk
from repro.kernels.gll import gll_points
from repro.kernels.operators import derivative_matrix

from . import kernel_oracles as oracle


def field(nel, n, seed=0):
    return np.random.default_rng(seed).standard_normal((nel, n, n, n))


class TestVariantAgreement:
    @pytest.mark.parametrize("direction", ["r", "s", "t"])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_all_variants_agree(self, direction, n):
        u = field(4, n)
        d = np.asarray(derivative_matrix(n))
        ref = oracle.derivative(u, d, direction, "basic")
        for variant in ("basic", "fused", "einsum"):
            out = dk.derivative(u, d, direction, variant)
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(
                out, oracle.derivative(u, d, direction, variant)
            )

    def test_grad_returns_three(self):
        u = field(2, 4)
        d = np.asarray(derivative_matrix(4))
        ur, us, ut = dk.grad(u, d)
        np.testing.assert_allclose(ur, dk.dudr(u, d))
        np.testing.assert_allclose(us, dk.duds(u, d))
        np.testing.assert_allclose(ut, dk.dudt(u, d))


class TestExactness:
    """The collocation derivative is exact on polynomials < degree N."""

    @pytest.mark.parametrize("variant", ["basic", "fused", "einsum"])
    def test_polynomial_in_each_direction(self, variant):
        n = 6
        x = np.asarray(gll_points(n))
        d = np.asarray(derivative_matrix(n))
        # u(r,s,t) = r^3 s^2 + t^4
        r = x[:, None, None]
        s = x[None, :, None]
        t = x[None, None, :]
        u = (r**3 * s**2 + t**4 + 0 * r)[None]
        np.testing.assert_allclose(
            dk.dudr(u, d, variant), (3 * r**2 * s**2 + 0 * t)[None], atol=1e-10
        )
        np.testing.assert_allclose(
            dk.duds(u, d, variant), (2 * r**3 * s + 0 * t)[None], atol=1e-10
        )
        np.testing.assert_allclose(
            dk.dudt(u, d, variant), (4 * t**3 + 0 * r * s)[None], atol=1e-10
        )

    @pytest.mark.parametrize("direction", ["r", "s", "t"])
    def test_constant_has_zero_derivative(self, direction):
        n = 5
        d = np.asarray(derivative_matrix(n))
        u = np.full((3, n, n, n), 7.5)
        np.testing.assert_allclose(
            dk.derivative(u, d, direction, "fused"), 0.0, atol=1e-12
        )


class TestProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        d = np.asarray(derivative_matrix(n))
        u = rng.standard_normal((2, n, n, n))
        v = rng.standard_normal((2, n, n, n))
        a, b = rng.standard_normal(2)
        lhs = dk.dudr(a * u + b * v, d)
        rhs = a * dk.dudr(u, d) + b * dk.dudr(v, d)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_directions_commute(self, seed):
        """Mixed partials commute (operators act on different axes)."""
        rng = np.random.default_rng(seed)
        n = 4
        d = np.asarray(derivative_matrix(n))
        u = rng.standard_normal((1, n, n, n))
        np.testing.assert_allclose(
            dk.duds(dk.dudr(u, d), d),
            dk.dudr(dk.duds(u, d), d),
            rtol=1e-9, atol=1e-9,
        )

    def test_identity_matrix_is_noop(self):
        n = 5
        u = field(3, n)
        eye = np.eye(n)
        for direction in "rst":
            np.testing.assert_array_equal(
                dk.derivative(u, eye, direction, "fused"), u
            )


class TestValidation:
    def test_bad_field_shape(self):
        d = np.asarray(derivative_matrix(4))
        with pytest.raises(ValueError):
            dk.dudr(np.zeros((2, 4, 4, 5)), d)
        with pytest.raises(ValueError):
            dk.dudr(np.zeros((4, 4, 4)), d)

    def test_mismatched_matrix(self):
        with pytest.raises(ValueError):
            dk.dudr(np.zeros((1, 4, 4, 4)), np.eye(5))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown kernel variant"):
            dk.derivative(np.zeros((1, 4, 4, 4)), np.eye(4), "r", "magic")

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="unknown direction"):
            dk.derivative(np.zeros((1, 4, 4, 4)), np.eye(4), "x", "fused")


class TestWorkCounts:
    def test_flops_formula(self):
        assert dk.flops(5, 100) == 2 * 5**4 * 100
        assert dk.flops(5, 100, ndirections=3) == 6 * 5**4 * 100

    def test_mem_bytes_formula(self):
        assert dk.mem_bytes(10, 7) == 16 * 1000 * 7
