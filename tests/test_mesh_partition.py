"""Domain decomposition onto 3-D processor grids."""

import pytest
from hypothesis import given, strategies as st

from repro.mesh import BoxMesh, Partition, factor3


class TestFactor3:
    @given(st.integers(1, 4096))
    def test_product_and_order(self, p):
        fx, fy, fz = factor3(p)
        assert fx * fy * fz == p
        assert fx >= fy >= fz >= 1

    def test_known_values(self):
        assert factor3(256) == (8, 8, 4)   # the Fig. 7 grid
        assert factor3(8) == (2, 2, 2)
        assert factor3(1) == (1, 1, 1)
        assert factor3(7) == (7, 1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            factor3(0)


class TestPartition:
    def test_fig7_exact_setup(self):
        mesh = BoxMesh(shape=(40, 40, 16), n=10)
        part = Partition(mesh, proc_shape=(8, 8, 4))
        assert part.nranks == 256
        assert part.local_shape == (5, 5, 4)
        assert part.nel_local == 100
        assert mesh.nelgt == 25600

    def test_describe_matches_fig7_text(self):
        mesh = BoxMesh(shape=(40, 40, 16), n=10)
        text = Partition(mesh, proc_shape=(8, 8, 4)).describe()
        assert "Number of processors: 256" in text
        assert "elements per process = 100" in text
        assert "Total elements = 25600" in text
        assert "Processor Distribution (x,y,z) = 8, 8, 4" in text
        assert "Element Distribution (x,y,z) = 40, 40, 16" in text
        assert "Local Element Distribution (x,y,z) = 5, 5, 4" in text

    def test_indivisible_rejected(self):
        mesh = BoxMesh(shape=(5, 4, 4), n=3)
        with pytest.raises(ValueError, match="not divisible"):
            Partition(mesh, proc_shape=(2, 2, 2))

    def test_rank_coords_x_fastest(self):
        mesh = BoxMesh(shape=(6, 4, 2), n=3)
        part = Partition(mesh, proc_shape=(3, 2, 1))
        assert [part.rank_coords(r) for r in range(6)] == [
            (cx, cy, 0) for cy in range(2) for cx in range(3)
        ]

    def test_every_element_owned_once(self):
        mesh = BoxMesh(shape=(4, 6, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 3, 1))
        owners = {}
        for rank in range(part.nranks):
            for ec in part.local_elements(rank):
                assert ec not in owners
                owners[ec] = rank
                assert part.owner_ranks([ec]).tolist() == [rank]
        assert len(owners) == mesh.nelgt

    def test_rank_coords_out_of_range(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 1, 1))
        with pytest.raises(ValueError):
            part.rank_coords(2)

    @given(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    def test_equal_load(self, p):
        """Every rank owns exactly nelgt / P elements."""
        fx, fy, fz = factor3(p)
        mesh = BoxMesh(shape=(2 * fx, 2 * fy, 2 * fz), n=3)
        part = Partition(mesh, proc_shape=(fx, fy, fz))
        for rank in range(p):
            assert len(part.local_elements(rank)) == mesh.nelgt // p


class TestDegenerateShapes:
    """Boundary/interior queries on the smallest legal decompositions."""

    def test_one_element_per_rank(self):
        import numpy as np

        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 2, 2))
        for rank in range(8):
            mask = part.boundary_mask(rank)
            # The single element touches every cut face: all boundary.
            assert mask.tolist() == [True]
            assert part.interior_local_indices(rank).size == 0
            assert np.array_equal(part.boundary_local_indices(rank), [0])

    def test_flat_column_split_along_k(self):
        import numpy as np

        mesh = BoxMesh(shape=(1, 1, 8), n=3)
        part = Partition(mesh, proc_shape=(1, 1, 4))
        for rank in range(4):
            mask = part.boundary_mask(rank)
            # Only z is cut; each 2-element column is all boundary.
            assert mask.tolist() == [True, True]
            assert part.interior_local_indices(rank).size == 0

    def test_flat_column_unsplit_axis_is_interior(self):
        mesh = BoxMesh(shape=(1, 1, 6), n=3)
        part = Partition(mesh, proc_shape=(1, 1, 1))
        mask = part.boundary_mask(0)
        # Single rank: no axis is cut, every element is interior.
        assert not mask.any()
        assert part.interior_local_indices(0).tolist() == [0, 1, 2, 3, 4, 5]
        assert part.boundary_local_indices(0).size == 0

    def test_flat_column_middle_elements_interior(self):
        mesh = BoxMesh(shape=(1, 1, 8), n=3)
        part = Partition(mesh, proc_shape=(1, 1, 2))
        mask = part.boundary_mask(0)
        # 4-element column, only the two cut faces are boundary.
        assert mask.tolist() == [True, False, False, True]
        assert part.interior_local_indices(0).tolist() == [1, 2]
