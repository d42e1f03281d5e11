"""Reference-element operators: derivative and interpolation."""

import numpy as np
import pytest

from repro.kernels.gll import gll_points, gll_weights
from repro.kernels.operators import (
    dealias_order,
    derivative_matrix,
    interpolation_matrix,
)

NS = [2, 3, 5, 8, 10, 16, 25]


class TestDerivativeMatrix:
    @pytest.mark.parametrize("n", NS)
    def test_exact_on_monomials(self, n):
        x = np.asarray(gll_points(n))
        d = np.asarray(derivative_matrix(n))
        for k in range(n):
            deriv = d @ x**k
            expect = k * x ** (k - 1) if k > 0 else np.zeros(n)
            np.testing.assert_allclose(deriv, expect, atol=1e-9 * max(1, n**2))

    @pytest.mark.parametrize("n", NS)
    def test_rows_sum_to_zero(self, n):
        d = derivative_matrix(n)
        np.testing.assert_allclose(np.asarray(d).sum(axis=1), 0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_sbp_property(self, n):
        """Q = W D satisfies Q + Q^T = B = diag(-1, 0, ..., 0, 1)."""
        d = np.asarray(derivative_matrix(n))
        w = np.asarray(gll_weights(n))
        q = w[:, None] * d
        b = np.zeros((n, n))
        b[0, 0], b[-1, -1] = -1.0, 1.0
        np.testing.assert_allclose(q + q.T, b, atol=1e-12)

    def test_known_n2(self):
        np.testing.assert_allclose(
            derivative_matrix(2), [[-0.5, 0.5], [-0.5, 0.5]]
        )

    def test_cached(self):
        assert derivative_matrix(5) is derivative_matrix(5)


class TestInterpolationMatrix:
    @pytest.mark.parametrize("n,m", [(4, 6), (5, 8), (6, 9), (8, 12)])
    def test_exact_on_polynomials(self, n, m):
        x_from = np.asarray(gll_points(n))
        x_to = np.asarray(gll_points(m))
        mat = np.asarray(interpolation_matrix(n, m))
        for k in range(n):
            np.testing.assert_allclose(
                mat @ x_from**k, x_to**k, atol=1e-11
            )

    def test_shape(self):
        assert interpolation_matrix(5, 8).shape == (8, 5)

    def test_identity_when_same(self):
        np.testing.assert_allclose(
            interpolation_matrix(6, 6), np.eye(6), atol=1e-12
        )

    def test_rows_sum_to_one(self):
        mat = np.asarray(interpolation_matrix(5, 9))
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)


class TestDealiasOrder:
    @pytest.mark.parametrize(
        "n,expected", [(4, 6), (5, 8), (6, 9), (10, 15), (16, 24)]
    )
    def test_three_halves_rule(self, n, expected):
        assert dealias_order(n) == expected
