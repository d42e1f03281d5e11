"""Dealiasing map/map-back between coarse and fine GLL grids."""

import numpy as np
import pytest

from repro.kernels.dealias import (
    dealias_flops,
    roundtrip,
    to_coarse,
    to_fine,
)
from repro.kernels.gll import gll_points
from repro.kernels.operators import interpolation_matrix

from . import kernel_oracles as oracle


def poly_field(n, nel=2):
    x = np.asarray(gll_points(n))
    r = x[:, None, None]
    s = x[None, :, None]
    t = x[None, None, :]
    u = 1.0 + r + r * s - t**2 + 0.5 * r * s * t
    return np.broadcast_to(u, (nel, n, n, n)).copy()


class TestToFine:
    def test_shape(self):
        u = np.zeros((3, 4, 4, 4))
        v = to_fine(u, 4)
        assert v.shape == (3, 6, 6, 6)

    def test_explicit_fine_order(self):
        u = np.zeros((1, 4, 4, 4))
        assert to_fine(u, 4, m=10).shape == (1, 10, 10, 10)

    def test_preserves_constants(self):
        u = np.full((2, 5, 5, 5), 3.25)
        np.testing.assert_allclose(to_fine(u, 5), 3.25, atol=1e-12)

    def test_polynomial_values_exact(self):
        """Interpolation of poly data reproduces it at fine nodes."""
        n, m = 5, 8
        u = poly_field(n)
        v = to_fine(u, n, m)
        xf = np.asarray(gll_points(m))
        r = xf[:, None, None]
        s = xf[None, :, None]
        t = xf[None, None, :]
        expect = 1.0 + r + r * s - t**2 + 0.5 * r * s * t
        np.testing.assert_allclose(v[0], expect, atol=1e-11)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            to_fine(np.zeros((1, 4, 4, 5)), 4)


class TestRoundtrip:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_exact_on_polynomials(self, n):
        u = poly_field(n) if n >= 4 else np.full((2, n, n, n), 2.0)
        np.testing.assert_allclose(roundtrip(u, n), u, atol=1e-10)

    def test_random_data_not_exact_but_close_in_norm(self):
        """Non-polynomial-consistent data changes, but boundedly."""
        rng = np.random.default_rng(0)
        n = 6
        u = rng.standard_normal((2, n, n, n))
        v = roundtrip(u, n)
        assert v.shape == u.shape
        assert np.linalg.norm(v) < 10 * np.linalg.norm(u)

    def test_coarse_then_fine_projection_idempotent(self):
        """to_coarse(to_fine(.)) applied twice equals once (projection)."""
        rng = np.random.default_rng(1)
        n = 5
        u = rng.standard_normal((1, n, n, n))
        once = roundtrip(u, n)
        twice = roundtrip(once, n)
        np.testing.assert_allclose(twice, once, atol=1e-10)


class TestOutWorkspace:
    """``out=``/``work=`` paths are bitwise identical to allocating."""

    @pytest.mark.parametrize("n", [5, 8, 20])
    def test_to_fine_out_bitwise(self, n):
        from repro.kernels.dealias import dealias_order
        from repro.kernels.workspace import Workspace

        rng = np.random.default_rng(n)
        u = rng.standard_normal((3, n, n, n))
        m = dealias_order(n)
        ref = oracle.apply_tensor(np.asarray(interpolation_matrix(n, m)), u)
        assert np.array_equal(to_fine(u, n), ref)
        out = np.empty((3, m, m, m))
        work = Workspace()
        res = to_fine(u, n, out=out, work=work)
        assert res is out
        assert np.array_equal(out, ref)
        # second call through the same workspace: same answer
        assert np.array_equal(to_fine(u, n, out=out, work=work), ref)

    def test_roundtrip_workspace_bitwise(self):
        from repro.kernels.workspace import Workspace

        rng = np.random.default_rng(9)
        u = rng.standard_normal((2, 6, 6, 6))
        ref = oracle.apply_tensor(
            np.asarray(interpolation_matrix(9, 6)),
            oracle.apply_tensor(np.asarray(interpolation_matrix(6, 9)), u),
        )
        assert np.array_equal(roundtrip(u, 6), ref)
        work = Workspace()
        got = roundtrip(u, 6, out=np.empty_like(u), work=work)
        assert np.array_equal(got, ref)

    def test_out_validation(self):
        u = np.zeros((1, 5, 5, 5))
        with pytest.raises(ValueError, match="shape"):
            to_fine(u, 5, out=np.empty((1, 5, 5, 5)))
        with pytest.raises(ValueError, match="C-contiguous"):
            to_coarse(
                np.zeros((1, 8, 8, 8)), 5,
                out=np.empty((1, 5, 10, 5))[:, :, ::2, :],
            )

    @pytest.mark.parametrize("variant", ["basic", "einsum", "generated"])
    def test_static_variants_run_the_gemm_chain(self, variant):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2, 6, 6, 6))
        assert np.array_equal(
            to_fine(u, 6, variant=variant), to_fine(u, 6)
        )

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError, match="variant"):
            to_fine(np.zeros((1, 5, 5, 5)), 5, variant="magic")


class TestHelpers:
    def test_flops_positive_and_scales(self):
        assert dealias_flops(8, nel=2) == pytest.approx(
            2 * dealias_flops(8, nel=1)
        )

    def test_to_coarse_shape(self):
        v = np.zeros((2, 9, 9, 9))
        assert to_coarse(v, 6, 9).shape == (2, 6, 6, 6)
