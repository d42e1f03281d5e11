"""Flux divergence: the derivative-kernel consumer.

The paper's abstraction: "the flux divergence can be abstracted into
matrix multiplication operations where the derivative matrix of size
(N, N) operates over a 3D data (N, N, N, Nel)".  On the affine box
mesh the physical divergence of the directional fluxes is::

    div F = jx * dFx/dr + jy * dFy/ds + jz * dFz/dt

with ``(jx, jy, jz)`` the constant reference-to-physical Jacobian
scales.  This is where the mini-app spends its time (Fig. 4's ``ax_``
family = these batched small matrix products).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..kernels import derivatives
from ..kernels.workspace import as_elements, field_blocks


def flux_divergence(
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    dmat: np.ndarray,
    jac: Tuple[float, float, float],
    variant: str = "fused",
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Divergence of one conserved component's flux triple.

    Each of ``fx``/``fy``/``fz`` is a ``(nel, N, N, N)`` batch; the
    result has the same shape.  Three derivative-kernel calls.

    ``out`` receives the result in place; ``work`` is a same-shape
    scratch array for the ``duds``/``dudt`` terms.  Supplying both
    makes the call allocation-free; the accumulation order (and hence
    every bit of the result) is unchanged.
    """
    jx, jy, jz = jac
    out = derivatives.dudr(fx, dmat, variant=variant, out=out)
    out *= jx
    tmp = derivatives.duds(fy, dmat, variant=variant, out=work)
    tmp *= jy
    out += tmp
    tmp = derivatives.dudt(fz, dmat, variant=variant, out=work)
    tmp *= jz
    out += tmp
    return out


def flux_divergence_multi(
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    dmat: np.ndarray,
    jac: Tuple[float, float, float],
    variant: str = "fused",
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Divergence for all ``NEQ`` components: inputs ``(5, nel, N, N, N)``.

    One :func:`flux_divergence` per block of components (element-local
    kernels: :func:`~repro.kernels.workspace.field_blocks`).  ``out``,
    when given, is the C-contiguous ``(neq, nel, N, N, N)`` result
    buffer; ``work`` a scratch shaped like the first, largest, block,
    ``fx[field_blocks(fx)[0]]`` (a block completes before the next).
    """
    if fx.ndim != 5:
        raise ValueError(f"expected (neq, nel, N, N, N), got {fx.shape}")
    if out is None:
        out = np.empty(fx.shape, dtype=fx.dtype)
    elif (out.shape != fx.shape or out.dtype != fx.dtype
          or not out.flags.c_contiguous):
        raise ValueError(
            f"out must be C-contiguous {fx.shape}, got {out.shape}"
        )
    blocks = field_blocks(fx)
    if work is not None and blocks and work.shape != fx[blocks[0]].shape:
        raise ValueError(f"work {work.shape} is not one block of {fx.shape}")
    for b in blocks:
        bx = fx[b]
        flux_divergence(
            as_elements(bx), as_elements(fy[b]), as_elements(fz[b]),
            dmat, jac, variant=variant, out=as_elements(out[b]),
            work=None if work is None else as_elements(work[:len(bx)]),
        )
    return out


def gradient_physical(
    u: np.ndarray,
    dmat: np.ndarray,
    jac: Tuple[float, float, float],
    variant: str = "fused",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical-space gradient of a scalar element batch."""
    jx, jy, jz = jac
    return (
        jx * derivatives.dudr(u, dmat, variant=variant),
        jy * derivatives.duds(u, dmat, variant=variant),
        jz * derivatives.dudt(u, dmat, variant=variant),
    )


def divergence_flops(n: int, nel: int, neq: int = 5) -> float:
    """Flops for the full multi-component divergence (3 derivs/comp)."""
    return derivatives.flops(n, nel, ndirections=3) * neq
