"""Element-face topology: neighbours, face indexing, rank adjacency.

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
from typing import Dict, List, Optional, Set, Tuple

from .box import BoxMesh, Coord
from .partition import Partition

#: Number of faces on a hexahedral element.
NFACES = 6

#: face index -> (axis, side) with side 0 = low, 1 = high.
FACE_AXIS_SIDE: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
)

#: face index -> the opposite face on the neighbouring element.
OPPOSITE_FACE: Tuple[int, ...] = (1, 0, 3, 2, 5, 4)


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
    """One local element face and what is on the other side."""

    local_element: int
    face: int
    neighbor_rank: Optional[int]       # None at a physical boundary
    neighbor_coords: Optional[Coord]
    neighbor_face: Optional[int]

    @property
    def is_boundary(self) -> bool:
        return self.neighbor_rank is None


class RankTopology:
    """All face links for one rank's brick of elements.

    Precomputed once per run; the gather-scatter setup, ``full2face``
    exchanges, and the communication analysis all read from here.
    """

    def __init__(self, partition: Partition, rank: int):
        self.partition = partition
        self.rank = rank
        mesh = partition.mesh
        self.links: List[FaceLink] = []
        self._neighbor_ranks: Set[int] = set()
        for lidx, ecoords in enumerate(partition.local_elements(rank)):
            for face in range(NFACES):
                ncoords = neighbor_coords(mesh, ecoords, face)
                if ncoords is None:
                    self.links.append(
                        FaceLink(lidx, face, None, None, None)
                    )
                    continue
                nrank = partition.owner_of(ncoords)
                self.links.append(
                    FaceLink(
                        lidx, face, nrank, ncoords, OPPOSITE_FACE[face]
                    )
                )
                if nrank != rank:
                    self._neighbor_ranks.add(nrank)

    @property
    def neighbor_ranks(self) -> List[int]:
        """Distinct remote ranks sharing at least one element face."""
        return sorted(self._neighbor_ranks)

    def remote_links(self) -> List[FaceLink]:
        """Face links whose neighbour lives on another rank."""
        return [
            l for l in self.links
            if l.neighbor_rank is not None and l.neighbor_rank != self.rank
        ]

    def boundary_links(self) -> List[FaceLink]:
        return [l for l in self.links if l.is_boundary]

    def faces_to_rank(self) -> Dict[int, List[FaceLink]]:
        """Remote face links grouped by neighbour rank (sorted keys)."""
        out: Dict[int, List[FaceLink]] = {}
        for l in self.remote_links():
            out.setdefault(l.neighbor_rank, []).append(l)
        return {k: out[k] for k in sorted(out)}

    def surface_bytes_per_exchange(self, value_bytes: int = 8) -> int:
        """Bytes this rank ships per face exchange (one field)."""
        n = self.partition.mesh.n
        return len(self.remote_links()) * n * n * value_bytes
