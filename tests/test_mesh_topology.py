"""Face indexing constants (the physical-boundary mask is tested with
``BoundaryHandler`` in ``test_solver_boundary.py``)."""

from repro.mesh import FACE_AXIS_SIDE, NFACES


class TestFaceConstants:
    def test_six_faces(self):
        assert NFACES == 6
        assert len(FACE_AXIS_SIDE) == 6
