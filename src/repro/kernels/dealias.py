"""Over-integration (dealiasing) transfer between coarse and fine grids.

Section V of the paper notes the small-matrix multiplies are used "for
computing partial derivatives in the spectral element solver and for
dealiasing reference elements, where an element is first mapped to a
finer mesh and later mapped back to the regular mesh".  This module
implements that map/map-back pair as tensor-product applications of the
1-D interpolation matrix.

Like the derivative kernels, the pair holds no contraction of its own:
:func:`to_fine`/:func:`to_coarse` validate their arguments and run the
``interp_fine``/``interp_coarse`` programs of :mod:`repro.kir` — three
batched GEMMs, one per axis.  Every entry point accepts ``out=`` (a
preallocated C-contiguous result that must not alias the input, the
same contract as the derivative kernels) and ``work=`` (a
:class:`~repro.kernels.workspace.Workspace` the two intermediate
tensors are drawn from), so the solver's RK loop runs the dealias pair
allocation-free; the in-place path runs the same kernel, so results
are bitwise identical to the allocating call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kir.library import VARIANT_SCHEDULE, default_library
from .derivatives import _check_out
from .operators import dealias_order, interpolation_matrix
from .workspace import Workspace


def _transfer(
    program: str,
    op: np.ndarray,
    u: np.ndarray,
    n: int,
    m: int,
    out: Optional[np.ndarray],
    work: Optional[Workspace],
    variant: str,
) -> np.ndarray:
    """Apply the ``(P, Q)`` operator ``op`` along all three axes of
    ``(nel, Q, Q, Q)`` data through the library's ``program`` kernel."""
    p, q = op.shape
    if u.ndim != 4 or u.shape[1:] != (q, q, q):
        raise ValueError(
            f"operator {op.shape} incompatible with field {u.shape}"
        )
    out = _check_out(u, out, (u.shape[0], p, p, p))
    # The derivative variants name loop forms of the *derivative*
    # kernel (Figs. 5-6); the transfer has one static form, the GEMM
    # chain, so every variant name but ``auto`` runs ``gemm`` here.
    if variant in VARIANT_SCHEDULE and variant != "auto":
        variant = "gemm"
    kernel = default_library().resolve(program, n, u.shape[0], variant, m=m)
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
    return _transfer("interp_fine", op, u, n, m, out, work, variant)


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
    return _transfer("interp_coarse", op, v, n, m, out, work, variant)


def roundtrip(
    u: np.ndarray,
    n: int,
    out: Optional[np.ndarray] = None,
    work: Optional[Workspace] = None,
) -> np.ndarray:
    """Map to the fine grid and back (the paper's dealias pattern).

    Exact (to roundoff) for polynomial data of degree <= N-1 when
    ``M >= N``.  The intermediate fine-grid field is drawn from
    ``work`` when given (key ``dealias:fine``).
    """
    m = dealias_order(n)
    nel = u.shape[0]
    fine_out = (
        None if work is None
        else work.buffer((nel, m, m, m), u.dtype, key="dealias:fine")
    )
    fine = to_fine(u, n, m, out=fine_out, work=work)
    return to_coarse(fine, n, m, out=out, work=work)


def dealias_flops(n: int, nel: int = 1) -> float:
    """Flop count for one map-to-fine + map-back pair."""
    m = dealias_order(n)
    # to_fine: 2*M*N^3 + 2*M^2*N^2 + 2*M^3*N per element; back is mirror.
    fwd = 2.0 * (m * n**3 + m**2 * n**2 + m**3 * n)
    return 2.0 * fwd * nel
