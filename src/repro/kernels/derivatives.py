"""The spectral-element derivative kernel — CMT-bone's hot spot.

Per element, a field ``u`` lives on an ``N x N x N`` GLL grid indexed
``(r, s, t)``; batches are stored ``(nel, N, N, N)`` in C order (``t``
fastest).  The partial derivative along each reference direction is a
small dense matrix product with the ``(N, N)`` derivative matrix ``D``:

* ``dudr[e,i,j,k] = sum_m D[i,m] u[e,m,j,k]``  (first index),
* ``duds[e,i,j,k] = sum_m D[j,m] u[e,i,m,k]``  (middle index),
* ``dudt[e,i,j,k] = sum_m D[k,m] u[e,i,j,m]``  (last index),

an ``O(N^4)`` operation per element (Section V of the paper).

This module holds no contraction of its own: every entry point
validates its arguments and runs the kernel that
:func:`repro.kir.library.default_library` compiles from the
contraction IR.  ``variant`` names the loop form
(:data:`repro.kir.library.VARIANT_SCHEDULE` is the one table that says
which), mirroring the paper's loop study:

``fused`` (default; schedule ``gemm``)
    Loop fusion: the element and pencil loops collapse into a single
    batched GEMM.  ``dudr`` and ``dudt`` fuse perfectly into one
    ``(N, N) x (N, N^2)``-per-element product; ``duds`` contracts the
    *middle* index, so fusion is only partial (a strided batched
    matmul) — exactly the access-pattern obstruction the paper reports
    for ``duds``.
``basic`` (schedule ``plane``)
    The untransformed triple loop: one small 2-D product per pencil
    plane per element.  This is the Python analogue of the paper's
    "basic implementation" without loop fusion or unrolling.
``einsum``
    numpy's contraction engine with path optimization; the
    independent cross-check.
``auto``
    The fastest schedule on this host, from the persistent autotune
    cache (:mod:`repro.kir.autotune`).

``fused``, ``basic`` and ``einsum`` are each bitwise identical to the
hand-written loops they replaced (kept as oracles in
``tests/kernel_oracles.py``, compared for N = 5..25); *across* variants
results agree only up to float associativity, because the summation
order differs.

Every entry point returns a newly allocated ``(nel, N, N, N)`` array
unless given ``out=``: a preallocated C-contiguous result array that
must not alias the input.  The ``out=`` path runs the *same* kernel
writing in place, so results are bitwise identical to the allocating
call — it only removes the per-call allocation, which is what the
solver's RK loop reuses a :class:`~repro.kernels.workspace.Workspace`
for (see the ``kernels/workspace`` benchmark scenario).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..kir.ir import direction_program
from ..kir.library import default_library
from .workspace import Workspace

#: Reference-direction names in CMT-nek order.
DIRECTIONS = ("r", "s", "t")


def _check(u: np.ndarray, dmat: np.ndarray) -> Tuple[int, int]:
    if u.ndim != 4 or u.shape[1] != u.shape[2] or u.shape[2] != u.shape[3]:
        raise ValueError(
            f"expected field of shape (nel, N, N, N), got {u.shape}"
        )
    n = u.shape[1]
    if dmat.shape != (n, n):
        raise ValueError(
            f"derivative matrix shape {dmat.shape} does not match N={n}"
        )
    return u.shape[0], n


def _check_out(
    u: np.ndarray, out: Optional[np.ndarray], shape: Tuple[int, ...]
) -> np.ndarray:
    """Validate (or allocate) the ``out=`` result array of ``shape``.

    The kernels write through flat reshapes, so ``out`` must be
    C-contiguous; aliasing the input would corrupt the contraction.
    Shared by the derivative and dealias entry points.
    """
    if out is None:
        return np.empty(shape, dtype=u.dtype)
    if out.shape != shape or out.dtype != u.dtype:
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, "
            f"needs {shape}/{u.dtype}"
        )
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    # Bounds test first: the exact overlap solve only runs when it can hit.
    if np.may_share_memory(u, out) and np.shares_memory(u, out):
        raise ValueError("out must not alias the input field")
    return out


def derivative(
    u: np.ndarray,
    dmat: np.ndarray,
    direction: str,
    variant: str = "fused",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``d u / d{direction}`` under the requested variant."""
    program = direction_program(direction)
    nel, n = _check(u, dmat)
    out = _check_out(u, out, u.shape)
    kernel = default_library().resolve(program, n, nel, variant)
    return kernel.fn(u, dmat, out=out)


def dudr(
    u: np.ndarray,
    dmat: np.ndarray,
    variant: str = "fused",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """d/dr of a batch of element fields."""
    return derivative(u, dmat, "r", variant, out=out)


def duds(
    u: np.ndarray,
    dmat: np.ndarray,
    variant: str = "fused",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """d/ds of a batch of element fields."""
    return derivative(u, dmat, "s", variant, out=out)


def dudt(
    u: np.ndarray,
    dmat: np.ndarray,
    variant: str = "fused",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """d/dt of a batch of element fields."""
    return derivative(u, dmat, "t", variant, out=out)


def grad(
    u: np.ndarray,
    dmat: np.ndarray,
    variant: str = "fused",
    out: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All three reference-space partial derivatives of ``u``.

    ``out``, when given, is a triple of preallocated result arrays
    (one per direction), e.g. from :func:`grad_workspace`.  Runs the
    single ``grad`` IR program (one kernel for all three directions).
    """
    nel, n = _check(u, dmat)
    outs = tuple(
        _check_out(u, o, u.shape)
        for o in ((None, None, None) if out is None else out)
    )
    kernel = default_library().resolve("grad", n, nel, variant)
    return kernel.fn(u, dmat, out=outs)


def grad_workspace(
    work: Workspace, u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reusable ``out=`` triple for :func:`grad` from a workspace."""
    return (
        work.like(u, key="grad:r"),
        work.like(u, key="grad:s"),
        work.like(u, key="grad:t"),
    )


def flops(n: int, nel: int, ndirections: int = 1) -> float:
    """Floating-point operations for the derivative kernel.

    Each output point needs ``N`` multiply-adds, so one direction over
    ``nel`` elements costs ``2 N^4 nel`` flops.
    """
    return 2.0 * float(n) ** 4 * nel * ndirections


def mem_bytes(n: int, nel: int, ndirections: int = 1) -> float:
    """Minimum memory traffic (read field + write result), float64."""
    return 16.0 * float(n) ** 3 * nel * ndirections
