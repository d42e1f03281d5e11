"""Box mesh indexing and geometry."""

import numpy as np
import pytest

from repro.mesh import BoxMesh


class TestIndexing:
    def test_element_count(self):
        assert BoxMesh(shape=(4, 3, 2), n=4).nelgt == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxMesh(shape=(0, 1, 1), n=3)
        with pytest.raises(ValueError):
            BoxMesh(shape=(1, 1, 1), n=1)
        with pytest.raises(ValueError):
            BoxMesh(shape=(1, 1, 1), n=3, lengths=(0.0, 1.0, 1.0))


class TestGeometry:
    def test_element_lengths(self):
        mesh = BoxMesh(shape=(4, 2, 1), n=3, lengths=(2.0, 1.0, 3.0))
        assert mesh.element_lengths == (0.5, 0.5, 3.0)

    def test_jacobian_inverse_of_half_length(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=3, lengths=(2.0, 2.0, 2.0))
        assert mesh.jacobian == (2.0, 2.0, 2.0)

    def test_element_nodes_cover_element(self):
        mesh = BoxMesh(shape=(2, 1, 1), n=4, lengths=(2.0, 1.0, 1.0))
        nodes = mesh.element_nodes((1, 0, 0))
        assert nodes.shape == (3, 4, 4, 4)
        assert nodes[0].min() == pytest.approx(1.0)
        assert nodes[0].max() == pytest.approx(2.0)
        assert nodes[1].min() == pytest.approx(0.0)
        assert nodes[1].max() == pytest.approx(1.0)

    def test_adjacent_elements_share_interface_nodes(self):
        mesh = BoxMesh(shape=(2, 1, 1), n=5)
        left = mesh.element_nodes((0, 0, 0))
        right = mesh.element_nodes((1, 0, 0))
        np.testing.assert_allclose(left[0, -1], right[0, 0])


class TestPointCounts:
    def test_periodic_unique_points(self):
        mesh = BoxMesh(shape=(4, 4, 4), n=3, periodic=(True,) * 3)
        assert mesh.unique_points_shape() == (8, 8, 8)

    def test_nonperiodic_unique_points(self):
        mesh = BoxMesh(shape=(4, 4, 4), n=3, periodic=(False,) * 3)
        assert mesh.unique_points_shape() == (9, 9, 9)

    def test_mixed_periodicity(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=4, periodic=(True, False, True))
        assert mesh.unique_points_shape() == (6, 7, 6)
