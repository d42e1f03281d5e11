"""Global numbering schemes: the index sets behind gs_setup."""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import (
    BoxMesh,
    Partition,
    continuous_numbering,
    dg_face_numbering,
    face_counts,
    total_faces,
)


def gather_all(part, numbering):
    """Numbering arrays from every rank."""
    return [numbering(part, r) for r in range(part.nranks)]


def physical_key(mesh, ec, i, j, k, digits=9):
    """Geometric position of a GLL node, wrapped for periodicity."""
    nodes = mesh.element_nodes(ec)
    p = []
    for axis in range(3):
        v = nodes[axis, i, j, k]
        if mesh.periodic[axis]:
            v = v % mesh.lengths[axis]
            if abs(v - mesh.lengths[axis]) < 1e-12:
                v = 0.0
        p.append(round(float(v), digits))
    return tuple(p)


class TestContinuousNumbering:
    @pytest.mark.parametrize(
        "shape,proc,periodic",
        [
            ((2, 2, 2), (2, 1, 1), (True, True, True)),
            ((4, 2, 2), (2, 2, 1), (False, False, False)),
            ((3, 2, 2), (1, 2, 1), (True, False, True)),
        ],
    )
    def test_geometric_consistency(self, shape, proc, periodic):
        """Same gid <=> same physical location, across all ranks."""
        mesh = BoxMesh(shape=shape, n=3, periodic=periodic)
        part = Partition(mesh, proc_shape=proc)
        gid_to_pos = {}
        pos_to_gid = {}
        for rank in range(part.nranks):
            gids = continuous_numbering(part, rank)
            for lidx, ec in enumerate(part.local_elements(rank)):
                for i in range(3):
                    for j in range(3):
                        for k in range(3):
                            g = int(gids[lidx, i, j, k])
                            pos = physical_key(mesh, ec, i, j, k)
                            assert gid_to_pos.setdefault(g, pos) == pos
                            assert pos_to_gid.setdefault(pos, g) == g
        assert len(gid_to_pos) == np.prod(mesh.unique_points_shape())

    def test_shape(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=4)
        part = Partition(mesh, proc_shape=(2, 1, 1))
        assert continuous_numbering(part, 0).shape == (4, 4, 4, 4)

    def test_ids_dense(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(1, 1, 1))
        gids = continuous_numbering(part, 0)
        assert gids.min() == 0
        assert gids.max() == np.prod(mesh.unique_points_shape()) - 1

    def test_corner_multiplicity_periodic(self):
        """Element corners are shared by 8 elements on a periodic box."""
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(1, 1, 1))
        gids = continuous_numbering(part, 0)
        _, copies = np.unique(gids, return_counts=True)
        assert set(copies) == {1, 2, 4, 8}

    @given(
        st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)
        ),
        st.integers(2, 4),
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    @settings(max_examples=20, deadline=None)
    def test_unique_count_formula(self, shape, n, periodic):
        """Property: distinct ids match the analytic unique-point count."""
        mesh = BoxMesh(shape=shape, n=n, periodic=periodic)
        part = Partition(mesh, proc_shape=(1, 1, 1))
        gids = continuous_numbering(part, 0)
        assert len(np.unique(gids)) == np.prod(mesh.unique_points_shape())


class TestDGFaceNumbering:
    @pytest.mark.parametrize(
        "shape,proc",
        [((3, 2, 2), (3, 1, 1)), ((2, 2, 2), (2, 2, 2)), ((4, 2, 2), (2, 1, 1))],
    )
    def test_every_face_point_shared_exactly_twice_periodic(self, shape, proc):
        mesh = BoxMesh(shape=shape, n=3)
        part = Partition(mesh, proc_shape=proc)
        cnt = Counter()
        for rank in range(part.nranks):
            cnt.update(dg_face_numbering(part, rank).ravel().tolist())
        assert set(cnt.values()) == {2}
        assert len(cnt) == total_faces(mesh) * 9

    def test_nonperiodic_boundary_faces_unshared(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=3, periodic=(False,) * 3)
        part = Partition(mesh, proc_shape=(1, 1, 1))
        cnt = Counter(dg_face_numbering(part, 0).ravel().tolist())
        values = Counter(cnt.values())
        # Interior faces: 3 axes x 1 plane x 4 el = 12 faces shared 2x;
        # boundary: 6 sides x 4 faces = 24 faces seen once.
        assert values[2] == 12 * 9
        assert values[1] == 24 * 9

    def test_shared_block_geometric_agreement(self):
        """The two elements at a face assign ids to coincident points."""
        mesh = BoxMesh(shape=(2, 1, 1), n=4)
        part = Partition(mesh, proc_shape=(2, 1, 1))
        g0 = dg_face_numbering(part, 0)[0]  # element (0,0,0)
        g1 = dg_face_numbering(part, 1)[0]  # element (1,0,0)
        # Face 1 (+x) of element 0 == face 0 (-x) of element 1.
        np.testing.assert_array_equal(g0[1], g1[0])
        # And with periodic wrap, face 0 of el 0 == face 1 of el 1.
        np.testing.assert_array_equal(g0[0], g1[1])

    def test_face_blocks_are_contiguous_n2_ranges(self):
        mesh = BoxMesh(shape=(2, 2, 1), n=3)
        part = Partition(mesh, proc_shape=(1, 1, 1))
        gids = dg_face_numbering(part, 0)
        for e in range(4):
            for f in range(6):
                block = gids[e, f]
                base = block.min()
                np.testing.assert_array_equal(
                    np.sort(block.ravel()), np.arange(base, base + 9)
                )
                assert base % 9 == 0

    def test_face_counts(self):
        mesh_p = BoxMesh(shape=(3, 4, 5), n=3)
        assert face_counts(mesh_p) == (3, 4, 5)
        mesh_np = BoxMesh(shape=(3, 4, 5), n=3, periodic=(False,) * 3)
        assert face_counts(mesh_np) == (4, 5, 6)

    def test_total_faces(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        # periodic: 3 axes x 2 planes x 4 = 24 faces
        assert total_faces(mesh) == 24

    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        st.integers(2, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_dg_ids_disjoint_per_face(self, shape, n):
        """No two distinct geometric faces share any id."""
        mesh = BoxMesh(shape=shape, n=n)
        part = Partition(mesh, proc_shape=(1, 1, 1))
        gids = dg_face_numbering(part, 0)
        face_of = defaultdict(set)
        for e in range(gids.shape[0]):
            for f in range(6):
                fid = int(gids[e, f].min()) // (n * n)
                for g in gids[e, f].ravel():
                    face_of[int(g)].add(fid)
        assert all(len(s) == 1 for s in face_of.values())
