"""Face topology: neighbours, boundary handling, rank adjacency."""

import itertools

from repro.mesh import (
    BoxMesh,
    FACE_AXIS_SIDE,
    NFACES,
    Partition,
    RankTopology,
    neighbor_coords,
)


class TestFaceConstants:
    def test_six_faces(self):
        assert NFACES == 6
        assert len(FACE_AXIS_SIDE) == 6


class TestNeighborCoords:
    def test_interior(self):
        mesh = BoxMesh(shape=(3, 3, 3), n=3)
        assert neighbor_coords(mesh, (1, 1, 1), 0) == (0, 1, 1)
        assert neighbor_coords(mesh, (1, 1, 1), 1) == (2, 1, 1)
        assert neighbor_coords(mesh, (1, 1, 1), 2) == (1, 0, 1)
        assert neighbor_coords(mesh, (1, 1, 1), 5) == (1, 1, 2)

    def test_periodic_wrap(self):
        mesh = BoxMesh(shape=(3, 3, 3), n=3, periodic=(True,) * 3)
        assert neighbor_coords(mesh, (0, 0, 0), 0) == (2, 0, 0)
        assert neighbor_coords(mesh, (2, 0, 0), 1) == (0, 0, 0)

    def test_nonperiodic_boundary_is_none(self):
        mesh = BoxMesh(shape=(3, 3, 3), n=3, periodic=(False,) * 3)
        assert neighbor_coords(mesh, (0, 0, 0), 0) is None
        assert neighbor_coords(mesh, (2, 2, 2), 5) is None
        assert neighbor_coords(mesh, (0, 0, 0), 1) == (1, 0, 0)

    def test_reciprocal(self):
        mesh = BoxMesh(shape=(4, 3, 2), n=3)
        for ec in itertools.product(range(4), range(3), range(2)):
            for f in range(6):
                nb = neighbor_coords(mesh, ec, f)
                assert nb is not None  # periodic: all interior
                axis, side = FACE_AXIS_SIDE[f]
                opposite = FACE_AXIS_SIDE.index((axis, 1 - side))
                back = neighbor_coords(mesh, nb, opposite)
                assert back == ec


class TestRankTopology:
    def test_periodic_box_has_no_boundary(self):
        mesh = BoxMesh(shape=(4, 4, 4), n=3)
        part = Partition(mesh, proc_shape=(2, 2, 2))
        topo = RankTopology(part, rank=0)
        assert topo.boundary_links() == []
        assert len(topo.links) == part.nel_local * 6

    def test_nonperiodic_corner_rank_has_boundary(self):
        mesh = BoxMesh(shape=(4, 4, 4), n=3, periodic=(False,) * 3)
        part = Partition(mesh, proc_shape=(2, 2, 2))
        topo = RankTopology(part, rank=0)
        # Rank 0 brick is 2x2x2 at the corner: 3 exposed faces of 4 el.
        assert len(topo.boundary_links()) == 3 * 4
