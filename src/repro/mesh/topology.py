"""Element-face indexing: which face of a hex element is which.

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

from typing import Tuple

#: Number of faces on a hexahedral element.
NFACES = 6

#: face index -> (axis, side) with side 0 = low, 1 = high.
FACE_AXIS_SIDE: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
)
