"""``repro.mesh`` — box meshes, domain decomposition, and numberings.

Implements the partitioned hexahedral-element domain of Fig. 3: the
global element box, its decomposition onto a 3-D processor grid, the
face indexing of an element, and the two global GLL-point
numbering schemes (C0 continuous for Nekbone, DG face-pair for
CMT-bone) that drive ``gs_setup``.
"""

from .box import BoxMesh
from .numbering import (
    continuous_numbering,
    dg_face_numbering,
    face_counts,
    total_faces,
)
from .partition import Partition, factor3
from .topology import FACE_AXIS_SIDE, NFACES

__all__ = [
    "BoxMesh",
    "FACE_AXIS_SIDE",
    "NFACES",
    "Partition",
    "continuous_numbering",
    "dg_face_numbering",
    "face_counts",
    "factor3",
    "total_faces",
]
