"""Global GLL-point numberings: the index sets behind ``gs_setup``.

The paper (Section VI): "spectral element coefficients are stored
redundantly (and locally) on each processor instead of maintaining a
global matrix and each processor is given index sets containing the
global ids of the elements using ``gs_setup``".  Two numberings are
needed by the Nek-family mini-apps:

``continuous_numbering``
    Every geometrically coincident GLL point (across element faces,
    edges, and corners) shares one global id.  This is the C0
    direct-stiffness-summation numbering Nekbone's CG solve uses:
    ``gs_op(add)`` over it assembles the global operator.

``dg_face_numbering``
    Each geometric *face* of the mesh gets its own block of ``N^2``
    ids, shared only by the (at most two) elements abutting that face.
    ``gs_op(add)`` over it hands every element the sum of its own and
    its neighbour's face trace — subtracting its own value recovers
    the neighbour state the DG numerical flux needs.  This is CMT-nek's
    ``dg`` gather-scatter handle feeding ``full2face_cmt``.

Both return ``int64`` arrays shaped like the data they index
(``(nel, N, N, N)`` and ``(nel, 6, N, N)`` respectively).
"""

from __future__ import annotations

import numpy as np

from .box import BoxMesh
from .partition import Partition
from .topology import FACE_AXIS_SIDE, NFACES


def continuous_numbering(partition: Partition, rank: int) -> np.ndarray:
    """C0 global ids for this rank's volume data: ``(nel, N, N, N)``.

    Coincident points on element boundaries (faces, edges, corners,
    and periodic wraps) receive identical ids; ids are dense in
    ``[0, prod(mesh.unique_points_shape()))``.
    """
    mesh = partition.mesh
    n = mesh.n
    npts = mesh.unique_points_shape()
    els = partition.local_elements(rank)
    gids = np.empty((len(els), n, n, n), dtype=np.int64)
    idx = np.arange(n)
    for lidx, (ix, iy, iz) in enumerate(els):
        gx = _global_line(ix, idx, n, npts[0], mesh.periodic[0])
        gy = _global_line(iy, idx, n, npts[1], mesh.periodic[1])
        gz = _global_line(iz, idx, n, npts[2], mesh.periodic[2])
        gids[lidx] = (
            gx[:, None, None]
            + npts[0] * (gy[None, :, None] + npts[1] * gz[None, None, :])
        )
    return gids


def _global_line(
    e: int, idx: np.ndarray, n: int, npts: int, periodic: bool
) -> np.ndarray:
    g = e * (n - 1) + idx
    if periodic:
        g = g % npts
    return g


def face_counts(mesh: BoxMesh) -> tuple:
    """Global face-plane counts per axis: (FX, FY, FZ).

    Axis ``a`` has ``shape[a]`` planes when periodic (every face
    interior) and ``shape[a] + 1`` otherwise (two boundary planes).
    """
    return tuple(
        s if per else s + 1 for s, per in zip(mesh.shape, mesh.periodic)
    )


def total_faces(mesh: BoxMesh) -> int:
    """Total number of geometric faces in the mesh."""
    ex, ey, ez = mesh.shape
    fx, fy, fz = face_counts(mesh)
    return fx * ey * ez + ex * fy * ez + ex * ey * fz


def dg_face_numbering(partition: Partition, rank: int) -> np.ndarray:
    """DG face-pair global ids for this rank: ``(nel, 6, N, N)``.

    Ids are ``face_id * N^2 + N * a + b`` where ``(a, b)`` are the
    face-local coordinates from :mod:`repro.mesh.topology`'s table, so
    a face's ids ascend in its entries' memory order.  The two elements
    sharing a geometric face produce identical blocks, so ``gs_op(add)``
    over these ids is exactly the two-sided face trace sum, and the ids
    a rank shares with a neighbour come in whole faces: a multi-rank
    :class:`~repro.gs.handle.PairPlan` moves ``N^2`` entries per index.
    """
    mesh = partition.mesh
    n = mesh.n
    ex, ey, ez = mesh.shape
    fx, fy, fz = face_counts(mesh)
    ofs_y = fx * ey * ez              # first y-face id
    ofs_z = ofs_y + ex * fy * ez      # first z-face id

    ab = np.arange(n)
    # Face-local point offsets N*a + b, identical for every face.
    pt = n * ab[:, None] + ab[None, :]

    els = partition.local_elements(rank)
    gids = np.empty((len(els), NFACES, n, n), dtype=np.int64)
    for lidx, (ix, iy, iz) in enumerate(els):
        for face in range(NFACES):
            axis, side = FACE_AXIS_SIDE[face]
            if axis == 0:
                plane = (ix + side) % fx if mesh.periodic[0] else ix + side
                fid = plane + fx * (iy + ey * iz)
            elif axis == 1:
                plane = (iy + side) % fy if mesh.periodic[1] else iy + side
                fid = ofs_y + ix + ex * (plane + fy * iz)
            else:
                plane = (iz + side) % fz if mesh.periodic[2] else iz + side
                fid = ofs_z + ix + ex * (iy + ey * plane)
            gids[lidx, face] = fid * (n * n) + pt
    return gids
