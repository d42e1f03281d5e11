"""full2face / face2full surface data movement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.surface import (
    FACE_NORMAL_AXIS,
    FACE_NORMAL_SIGN,
    face2full_add,
    full2face,
    full2face_flops,
    full2face_multi,
)


class TestFull2Face:
    def test_shape(self):
        u = np.zeros((3, 5, 5, 5))
        assert full2face(u).shape == (3, 6, 5, 5)

    def test_face_values(self):
        n = 4
        u = np.arange(n**3, dtype=float).reshape(1, n, n, n)
        f = full2face(u)
        np.testing.assert_array_equal(f[0, 0], u[0, 0, :, :])
        np.testing.assert_array_equal(f[0, 1], u[0, -1, :, :])
        np.testing.assert_array_equal(f[0, 2], u[0, :, 0, :])
        np.testing.assert_array_equal(f[0, 3], u[0, :, -1, :])
        np.testing.assert_array_equal(f[0, 4], u[0, :, :, 0])
        np.testing.assert_array_equal(f[0, 5], u[0, :, :, -1])

    def test_constant_field(self):
        u = np.full((2, 3, 3, 3), 4.5)
        np.testing.assert_array_equal(full2face(u), 4.5)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            full2face(np.zeros((3, 3, 3)))

    def test_multi(self):
        u = np.random.default_rng(0).standard_normal((5, 2, 3, 3, 3))
        f = full2face_multi(u)
        assert f.shape == (5, 2, 6, 3, 3)
        for c in range(5):
            np.testing.assert_array_equal(f[c], full2face(u[c]))

    def test_multi_bad_shape(self):
        with pytest.raises(ValueError):
            full2face_multi(np.zeros((2, 3, 3, 3)))


class TestFace2Full:
    def test_interior_untouched(self):
        n = 5
        resid = np.zeros((1, n, n, n))
        faces = np.ones((1, 6, n, n))
        face2full_add(resid, faces)
        assert resid[0, 2, 2, 2] == 0.0

    def test_face_centers_get_one_contribution(self):
        n = 5
        resid = np.zeros((1, n, n, n))
        faces = np.ones((1, 6, n, n))
        face2full_add(resid, faces)
        assert resid[0, 0, 2, 2] == 1.0
        assert resid[0, -1, 2, 2] == 1.0

    def test_edges_and_corners_accumulate(self):
        n = 4
        resid = np.zeros((1, n, n, n))
        faces = np.ones((1, 6, n, n))
        face2full_add(resid, faces)
        assert resid[0, 0, 0, 2] == 2.0    # edge: 2 faces
        assert resid[0, 0, 0, 0] == 3.0    # corner: 3 faces

    def test_accumulates_in_place(self):
        n = 3
        resid = np.full((2, n, n, n), 1.0)
        faces = np.zeros((2, 6, n, n))
        faces[:, 0] = 5.0
        face2full_add(resid, faces)
        assert resid[0, 0, 1, 1] == 6.0
        assert resid[0, 1, 1, 1] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            face2full_add(np.zeros((1, 3, 3, 3)), np.zeros((1, 6, 4, 4)))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_adjointish_identity(self, seed):
        """sum(faces * full2face(u)) == sum(u * face2full_add(0, faces)).

        full2face and face2full_add are transposes of each other — the
        property that makes the SAT correction conservative.
        """
        rng = np.random.default_rng(seed)
        n, nel = 4, 2
        u = rng.standard_normal((nel, n, n, n))
        faces = rng.standard_normal((nel, 6, n, n))
        lhs = float(np.sum(faces * full2face(u)))
        lifted = np.zeros_like(u)
        face2full_add(lifted, faces)
        rhs = float(np.sum(u * lifted))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestFaceMetadata:
    def test_normal_axes(self):
        assert FACE_NORMAL_AXIS == (0, 0, 1, 1, 2, 2)

    def test_normal_signs(self):
        assert FACE_NORMAL_SIGN == (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0)

    def test_flops(self):
        assert full2face_flops(5, 10, ncomp=2) == 2 * 10 * 6 * 25
