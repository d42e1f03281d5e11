"""``full2face_cmt`` / ``face2full`` — volume/surface data movement.

The paper names ``full2face_cmt`` as one of CMT-bone's key kernels:
"creates an array of surface data, that needs to be transferred to the
neighbors, from the volume data for each element".  Face ordering and
face-local coordinates follow :mod:`repro.mesh.topology` exactly, so
the extracted arrays line up with the DG face numbering and gs handle.
"""

from __future__ import annotations

import numpy as np

from ..kernels.workspace import field_blocks
from ..mesh.topology import FACE_AXIS_SIDE, NFACES

#: For each face, the axis of its outward normal (0=x, 1=y, 2=z).
FACE_NORMAL_AXIS = tuple(axis for axis, _ in FACE_AXIS_SIDE)
#: Outward-normal sign per face (-1 for low faces, +1 for high faces).
FACE_NORMAL_SIGN = tuple(-1.0 if side == 0 else 1.0 for _, side in FACE_AXIS_SIDE)


def full2face(u: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """Extract all six face traces of element volume data.

    ``u`` is ``(nel, N, N, N)``; the result is ``(nel, 6, N, N)`` with
    the face-local coordinates of the topology table (so both elements
    adjacent to a geometric face index its points identically), both
    under any leading field axes.  ``out``, when given, receives the
    traces in place.
    """
    if u.ndim < 4:
        raise ValueError(f"expected (nel, N, N, N), got {u.shape}")
    shape = (*u.shape[:-3], NFACES, *u.shape[-2:])
    if out is None:
        out = np.empty(shape, dtype=u.dtype)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, need {shape}")
    out[..., 0, :, :] = u[..., 0, :, :]
    out[..., 1, :, :] = u[..., -1, :, :]
    out[..., 2, :, :] = u[..., :, 0, :]
    out[..., 3, :, :] = u[..., :, -1, :]
    out[..., 4, :, :] = u[..., :, :, 0]
    out[..., 5, :, :] = u[..., :, :, -1]
    return out


def face2full_add(resid: np.ndarray, faces: np.ndarray) -> None:
    """Accumulate per-face values back onto the volume boundary nodes.

    In-place: ``resid`` is ``(nel, N, N, N)``, ``faces`` is
    ``(nel, 6, N, N)``, both under any (equal) leading field axes.
    Edge/corner volume nodes belong to several faces and receive every
    contribution (+=), which is exactly what the tensor-product SAT
    correction requires.
    """
    if resid.ndim < 4 or faces.shape != (
        *resid.shape[:-3], NFACES, resid.shape[-1], resid.shape[-1]
    ):
        raise ValueError(
            f"shape mismatch: resid {resid.shape}, faces {faces.shape}"
        )
    resid[..., 0, :, :] += faces[..., 0, :, :]
    resid[..., -1, :, :] += faces[..., 1, :, :]
    resid[..., :, 0, :] += faces[..., 2, :, :]
    resid[..., :, -1, :] += faces[..., 3, :, :]
    resid[..., :, :, 0] += faces[..., 4, :, :]
    resid[..., :, :, -1] += faces[..., 5, :, :]


def full2face_multi(
    u: np.ndarray, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Vectorized :func:`full2face` over a leading component axis.

    ``u`` is ``(ncomp, nel, N, N, N)`` -> ``(ncomp, nel, 6, N, N)``.
    ``out``, when given, receives the traces in place (the same stores
    as the allocating call, so results are bitwise identical).  One
    :func:`full2face` per block of components (``field_blocks``).
    """
    if u.ndim != 5:
        raise ValueError(f"expected (ncomp, nel, N, N, N), got {u.shape}")
    if out is None:
        out = np.empty((*u.shape[:2], NFACES, *u.shape[3:]), dtype=u.dtype)
    for b in field_blocks(u):
        full2face(u[b], out=out[b])
    return out


def normal_flux_trace(fx, fy, fz, out, elements=slice(None)) -> None:
    """Write the normal-flux trace of ``elements`` into ``out``.

    ``fx``/``fy``/``fz`` are the directional fluxes ``(ncomp, nel, N, N,
    N)``; the surface term reads each only on the face pair normal to
    its direction, so exactly those six planes are moved into ``out``
    ``(ncomp, nel, 6, N, N)`` — the entries ``full2face`` of ``fx`` has
    on faces 0-1, of ``fy`` on 2-3, of ``fz`` on 4-5.
    """
    planes = (
        fx[:, :, 0], fx[:, :, -1],
        fy[:, :, :, 0], fy[:, :, :, -1],
        fz[..., 0], fz[..., -1],
    )
    for face, plane in enumerate(planes):
        out[:, elements, face] = plane[:, elements]


def full2face_flops(n: int, nel: int, ncomp: int = 1) -> float:
    """Cost model: pure data movement, ~1 'flop-equivalent' per point."""
    return float(ncomp * nel * NFACES * n * n)
