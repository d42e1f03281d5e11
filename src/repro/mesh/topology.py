"""Element-face topology: neighbours, face indexing, physical boundaries.

Face numbering convention (used consistently by ``full2face``, the DG
face numbering, and the solver's numerical flux):

====  =========  =====================  =================
face  direction  volume slice           face-local coords
====  =========  =====================  =================
 0     -r (x-)   ``u[e, 0,  :, :]``     (s, t)
 1     +r (x+)   ``u[e, -1, :, :]``     (s, t)
 2     -s (y-)   ``u[e, :, 0,  :]``     (r, t)
 3     +s (y+)   ``u[e, :, -1, :]``     (r, t)
 4     -t (z-)   ``u[e, :, :, 0 ]``     (r, s)
 5     +t (z+)   ``u[e, :, :, -1]``     (r, s)
====  =========  =====================  =================

Because the mesh is a structured box with every element identically
oriented, the face-local coordinate system of a face agrees between its
two adjacent elements — no orientation permutation is needed (general
unstructured meshes would need one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .box import BoxMesh, Coord
from .partition import Partition

#: Number of faces on a hexahedral element.
NFACES = 6

#: face index -> (axis, side) with side 0 = low, 1 = high.
FACE_AXIS_SIDE: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
)


def neighbor_coords(
    mesh: BoxMesh, ecoords: Coord, face: int
) -> Optional[Coord]:
    """Element across ``face``, or ``None`` at a non-periodic boundary."""
    axis, side = FACE_AXIS_SIDE[face]
    delta = 1 if side == 1 else -1
    c = list(ecoords)
    c[axis] += delta
    extent = mesh.shape[axis]
    if 0 <= c[axis] < extent:
        return tuple(c)  # type: ignore[return-value]
    if mesh.periodic[axis]:
        c[axis] %= extent
        return tuple(c)  # type: ignore[return-value]
    return None


@dataclass(frozen=True)
class FaceLink:
    """One local element face; ``is_boundary`` where no element lies
    across it (a non-periodic edge of the mesh)."""

    local_element: int
    face: int
    is_boundary: bool


class RankTopology:
    """All face links for one rank's elements, in local order.

    The solver's :class:`~repro.solver.boundary.BoundaryHandler` reads
    the physical-boundary faces from here.
    """

    def __init__(self, partition: Partition, rank: int):
        mesh = partition.mesh
        self.links: List[FaceLink] = [
            FaceLink(lidx, face, neighbor_coords(mesh, ecoords, face) is None)
            for lidx, ecoords in enumerate(partition.local_elements(rank))
            for face in range(NFACES)
        ]

    def boundary_links(self) -> List[FaceLink]:
        return [l for l in self.links if l.is_boundary]
