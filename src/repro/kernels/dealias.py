"""Over-integration (dealiasing) transfer between coarse and fine grids.

Section V of the paper notes the small-matrix multiplies are used "for
computing partial derivatives in the spectral element solver and for
dealiasing reference elements, where an element is first mapped to a
finer mesh and later mapped back to the regular mesh".  This module
implements that map/map-back pair as tensor-product applications of the
1-D interpolation matrix.

Like the derivative kernels, every entry point accepts ``out=`` (a
preallocated C-contiguous result that must not alias the input — same
alias-guard contract as :func:`repro.kernels.derivatives._check_out`)
and ``work=`` (a :class:`~repro.kernels.workspace.Workspace` the two
intermediate tensors are drawn from), so the solver's RK loop runs the
dealias pair allocation-free.  The in-place path performs the same
three GEMMs, so results are bitwise identical to the allocating call.

``variant="generated"``/``"auto"`` route through the contraction-IR
library (:mod:`repro.kir`, programs ``interp_fine``/``interp_coarse``)
instead of the hand-written GEMM chain below; the generated GEMM
schedule is bitwise identical to it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .operators import dealias_order, interpolation_matrix
from .workspace import Workspace

#: Variants accepted by the transfer entry points.
DEALIAS_VARIANTS = ("fused", "generated", "auto")


def _check_out(
    u: np.ndarray, out: Optional[np.ndarray], shape: Tuple[int, ...]
) -> np.ndarray:
    """Validate (or allocate) the result array; alias-guarded."""
    if out is None:
        return np.empty(shape, dtype=u.dtype)
    if out.shape != shape or out.dtype != u.dtype:
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, needs "
            f"{shape}/{u.dtype}"
        )
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    # Bounds test first: the exact overlap solve only runs when it can hit.
    if np.may_share_memory(u, out) and np.shares_memory(u, out):
        raise ValueError("out must not alias the input field")
    return out


def _apply_tensor(
    op: np.ndarray,
    u: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[Workspace] = None,
) -> np.ndarray:
    """Apply a 1-D operator along all three axes of (nel, N, N, N) data.

    ``op`` has shape ``(M, N)``; the result has shape ``(nel, M, M, M)``.
    Implemented as three batched GEMMs (the same fused structure as the
    derivative kernel), writing into ``out`` and drawing the two
    intermediates from ``work`` when given.
    """
    nel = u.shape[0]
    n = u.shape[1]
    m = op.shape[0]
    if op.shape[1] != n or u.shape[1:] != (n, n, n):
        raise ValueError(
            f"operator {op.shape} incompatible with field {u.shape}"
        )
    out = _check_out(u, out, (nel, m, m, m))
    if work is None:
        t1 = np.empty((nel, m, n, n), dtype=u.dtype)
        t2 = np.empty((nel, m, m, n), dtype=u.dtype)
    else:
        t1 = work.buffer((nel, m, n, n), u.dtype, key="dealias:t1")
        t2 = work.buffer((nel, m, m, n), u.dtype, key="dealias:t2")
    # axis 1 (r): (M,N) @ (nel, N, N*N)
    np.matmul(
        op, u.reshape(nel, n, n * n), out=t1.reshape(nel, m, n * n)
    )
    # axis 2 (s): batch over (nel, M)
    np.matmul(
        op, t1.reshape(nel * m, n, n), out=t2.reshape(nel * m, m, n)
    )
    # axis 3 (t): (..., N) @ (N, M)
    np.matmul(
        t2.reshape(nel, m * m, n), op.T, out=out.reshape(nel, m * m, m)
    )
    return out


def _generated_transfer(
    program: str,
    u: np.ndarray,
    n: int,
    m: int,
    variant: str,
    out: Optional[np.ndarray],
    work: Optional[Workspace],
    op: np.ndarray,
    out_shape: Tuple[int, ...],
) -> np.ndarray:
    from ..kir import default_library

    out = _check_out(u, out, out_shape)
    kernel = default_library().resolve(
        program, n, u.shape[0], variant=variant, m=m
    )
    return kernel.fn(u, op, out=out, work=work)


def to_fine(
    u: np.ndarray,
    n: int,
    m: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    work: Optional[Workspace] = None,
    variant: str = "fused",
) -> np.ndarray:
    """Interpolate (nel, N, N, N) fields to the (nel, M, M, M) fine grid.

    ``M`` defaults to the 3/2-rule
    :func:`~repro.kernels.operators.dealias_order`.
    """
    m = dealias_order(n) if m is None else m
    op = np.asarray(interpolation_matrix(n, m))
    if variant in ("generated", "auto"):
        return _generated_transfer(
            "interp_fine", u, n, m, variant, out, work, op,
            (u.shape[0], m, m, m),
        )
    if variant != "fused":
        raise ValueError(
            f"unknown dealias variant {variant!r}; "
            f"variants: {DEALIAS_VARIANTS}"
        )
    return _apply_tensor(op, u, out=out, work=work)


def to_coarse(
    v: np.ndarray,
    n: int,
    m: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    work: Optional[Workspace] = None,
    variant: str = "fused",
) -> np.ndarray:
    """Map fine-grid fields back to the N-point grid (L2-style restriction).

    Uses the transpose-free interpolation back onto the coarse nodes
    (collocation restriction), which is the identity on polynomials of
    degree <= min(N, M) - 1; :func:`roundtrip` composes both directions.
    """
    m = dealias_order(n) if m is None else m
    op = np.asarray(interpolation_matrix(m, n))
    if variant in ("generated", "auto"):
        return _generated_transfer(
            "interp_coarse", v, n, m, variant, out, work, op,
            (v.shape[0], n, n, n),
        )
    if variant != "fused":
        raise ValueError(
            f"unknown dealias variant {variant!r}; "
            f"variants: {DEALIAS_VARIANTS}"
        )
    return _apply_tensor(op, v, out=out, work=work)


def roundtrip(
    u: np.ndarray,
    n: int,
    m: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    work: Optional[Workspace] = None,
    variant: str = "fused",
) -> np.ndarray:
    """Map to the fine grid and back (the paper's dealias pattern).

    Exact (to roundoff) for polynomial data of degree <= N-1 when
    ``M >= N``.  The intermediate fine-grid field is drawn from
    ``work`` when given (key ``dealias:fine``).
    """
    m = dealias_order(n) if m is None else m
    nel = u.shape[0]
    fine_out = (
        None if work is None
        else work.buffer((nel, m, m, m), u.dtype, key="dealias:fine")
    )
    fine = to_fine(u, n, m, out=fine_out, work=work, variant=variant)
    return to_coarse(fine, n, m, out=out, work=work, variant=variant)


def dealias_flops(n: int, m: Optional[int] = None, nel: int = 1) -> float:
    """Flop count for one map-to-fine + map-back pair."""
    m = dealias_order(n) if m is None else m
    # to_fine: 2*M*N^3 + 2*M^2*N^2 + 2*M^3*N per element; back is mirror.
    fwd = 2.0 * (m * n**3 + m**2 * n**2 + m**3 * n)
    return 2.0 * fwd * nel


def shapes(n: int, m: Optional[int] = None) -> Tuple[int, int]:
    """(coarse, fine) grid sizes used by the dealiasing pair."""
    return n, (dealias_order(n) if m is None else m)
