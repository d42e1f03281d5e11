"""The spectral-element derivative kernel — CMT-bone's hot spot.

Per element, a field ``u`` lives on an ``N x N x N`` GLL grid indexed
``(r, s, t)``; batches are stored ``(nel, N, N, N)`` in C order (``t``
fastest).  The partial derivative along each reference direction is a
small dense matrix product with the ``(N, N)`` derivative matrix ``D``:

* ``dudr[e,i,j,k] = sum_m D[i,m] u[e,m,j,k]``  (first index),
* ``duds[e,i,j,k] = sum_m D[j,m] u[e,i,m,k]``  (middle index),
* ``dudt[e,i,j,k] = sum_m D[k,m] u[e,i,j,m]``  (last index),

an ``O(N^4)`` operation per element (Section V of the paper).

Two implementation strategies mirror the paper's loop study:

``basic``
    The untransformed triple loop: one small 2-D product per pencil
    plane per element.  This is the Python analogue of the paper's
    "basic implementation" without loop fusion or unrolling.
``fused``
    Loop fusion: the element and pencil loops collapse into a single
    batched GEMM.  ``dudr`` and ``dudt`` fuse perfectly into one
    ``(N, N) x (N, N^2)``-per-element product; ``duds`` contracts the
    *middle* index, so fusion is only partial (a strided batched
    matmul) — exactly the access-pattern obstruction the paper reports
    for ``duds``.
``einsum``
    numpy's contraction engine with path optimization; used as an
    independent cross-check in tests.
``generated`` / ``auto``
    Compiled from the contraction IR (:mod:`repro.kir`) instead of
    hand-written: ``generated`` lowers the default GEMM schedule
    (bitwise identical to ``fused``, and its ``plane``/``einsum``
    schedules are bitwise identical to ``basic``/``einsum``); ``auto``
    picks the fastest schedule per host via the persistent autotune
    cache.  The hand-written variants above remain the references the
    generated code is verified against.

By default every variant returns a newly allocated ``(nel, N, N, N)``
array; all are bit-for-bit interchangeable (same contraction order up
to float associativity; tests enforce agreement to tight tolerance).

Every entry point also accepts ``out=``: a preallocated C-contiguous
result array that must not alias the input.  The ``out=`` path runs
the *same* contraction (``np.matmul``/``np.einsum`` writing in place),
so results are bitwise identical to the allocating call — it only
removes the per-call ``(nel, N, N, N)`` allocation, which is what the
solver's RK loop reuses a :class:`~repro.kernels.workspace.Workspace`
for (see the ``kernels/workspace`` benchmark scenario).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .workspace import Workspace

#: Hand-written variant names (kept as reference implementations).
VARIANTS = ("basic", "fused", "einsum")
#: Variants served by the generated-kernel library (:mod:`repro.kir`):
#: ``generated`` is the static default schedule (GEMM form, the same
#: algorithm as ``fused``), ``auto`` is the per-host autotuned winner.
GENERATED_VARIANTS = ("generated", "auto")
#: Everything the public entry points accept.
ALL_VARIANTS = VARIANTS + GENERATED_VARIANTS
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


def _check_out(u: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """Validate (or allocate) the ``out=`` result array.

    The fused variants write through flat reshapes, so ``out`` must be
    C-contiguous; aliasing the input would corrupt the contraction.
    """
    if out is None:
        return np.empty_like(u)
    if out.shape != u.shape or out.dtype != u.dtype:
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, "
            f"field needs {u.shape}/{u.dtype}"
        )
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    # Bounds test first: the exact overlap solve only runs when it can hit.
    if np.may_share_memory(u, out) and np.shares_memory(u, out):
        raise ValueError("out must not alias the input field")
    return out


# ----------------------------------------------------------------------
# basic: per-element, per-pencil-plane loops (no fusion, no unroll)
# ----------------------------------------------------------------------

def dudr_basic(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """d/dr: one ``D @ u[e, :, :, k]`` product per (element, fixed-t)
    (r, s)-plane, contracting the r axis."""
    nel, n = _check(u, dmat)
    out = _check_out(u, out)
    for e in range(nel):
        for k in range(n):
            out[e, :, :, k] = dmat @ u[e, :, :, k]
    return out


def duds_basic(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """d/ds: one ``D @ u[e, i]`` product per (element, fixed-r)
    (s, t)-plane, contracting the s axis."""
    nel, n = _check(u, dmat)
    out = _check_out(u, out)
    for e in range(nel):
        for i in range(n):
            out[e, i] = dmat @ u[e, i]
    return out


def dudt_basic(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """d/dt: one ``u[e, i] @ D.T`` product per (element, fixed-r)
    (s, t)-plane, contracting the t axis."""
    nel, n = _check(u, dmat)
    out = _check_out(u, out)
    dt = dmat.T
    for e in range(nel):
        for i in range(n):
            out[e, i] = u[e, i] @ dt
    return out


# ----------------------------------------------------------------------
# fused: element/pencil loops collapsed into batched GEMMs
# ----------------------------------------------------------------------

def dudr_fused(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """d/dr as one (N, N) x (N, N^2) GEMM per element (fully fused)."""
    nel, n = _check(u, dmat)
    out = _check_out(u, out)
    np.matmul(
        dmat, u.reshape(nel, n, n * n), out=out.reshape(nel, n, n * n)
    )
    return out


def duds_fused(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """d/ds as a batched (N, N) x (N, N) matmul over (element, r).

    The middle-index contraction cannot collapse into a single GEMM
    without transposing the data — the fusion obstruction the paper
    reports.  numpy broadcasts ``D`` over the ``nel*N`` batch instead.
    """
    nel, n = _check(u, dmat)
    out = _check_out(u, out)
    np.matmul(
        dmat, u.reshape(nel * n, n, n), out=out.reshape(nel * n, n, n)
    )
    return out


def dudt_fused(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """d/dt as one (N^2, N) x (N, N) GEMM per element (fully fused)."""
    nel, n = _check(u, dmat)
    out = _check_out(u, out)
    np.matmul(
        u.reshape(nel, n * n, n), dmat.T, out=out.reshape(nel, n * n, n)
    )
    return out


# ----------------------------------------------------------------------
# einsum: independent contraction path (cross-check variant)
# ----------------------------------------------------------------------

def dudr_einsum(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    _check(u, dmat)
    if out is not None:
        out = _check_out(u, out)
    return np.einsum("im,emjk->eijk", dmat, u, out=out, optimize=True)


def duds_einsum(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    _check(u, dmat)
    if out is not None:
        out = _check_out(u, out)
    return np.einsum("jm,eimk->eijk", dmat, u, out=out, optimize=True)


def dudt_einsum(
    u: np.ndarray, dmat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    _check(u, dmat)
    if out is not None:
        out = _check_out(u, out)
    return np.einsum("km,eijm->eijk", dmat, u, out=out, optimize=True)


_IMPLS: Dict[Tuple[str, str], Callable[..., np.ndarray]] = {
    ("r", "basic"): dudr_basic,
    ("s", "basic"): duds_basic,
    ("t", "basic"): dudt_basic,
    ("r", "fused"): dudr_fused,
    ("s", "fused"): duds_fused,
    ("t", "fused"): dudt_fused,
    ("r", "einsum"): dudr_einsum,
    ("s", "einsum"): duds_einsum,
    ("t", "einsum"): dudt_einsum,
}


def _generated_derivative(
    u: np.ndarray,
    dmat: np.ndarray,
    direction: str,
    variant: str,
    out: Optional[np.ndarray],
) -> np.ndarray:
    """Route one direction through the :mod:`repro.kir` library.

    Validation (shape, contiguity, aliasing) stays here so generated
    kernels keep exactly the hand-written variants' contract; the
    library memoizes resolution, so the steady-state overhead is one
    dict lookup.
    """
    from ..kir import default_library, direction_program

    nel, n = _check(u, dmat)
    out = _check_out(u, out)
    kernel = default_library().resolve(
        direction_program(direction), n, nel, variant=variant
    )
    return kernel.fn(u, dmat, out=out)


def derivative(
    u: np.ndarray,
    dmat: np.ndarray,
    direction: str,
    variant: str = "fused",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dispatch ``d u / d{direction}`` to the requested variant."""
    if variant in GENERATED_VARIANTS:
        if direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; directions: {DIRECTIONS}"
            )
        return _generated_derivative(u, dmat, direction, variant, out)
    try:
        impl = _IMPLS[(direction, variant)]
    except KeyError:
        raise ValueError(
            f"unknown derivative ({direction!r}, {variant!r}); "
            f"directions: {DIRECTIONS}, variants: {ALL_VARIANTS}"
        ) from None
    return impl(u, dmat, out=out)


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
    (one per direction), e.g. from :func:`grad_workspace`.

    The generated variants use the single fused ``grad`` IR program
    (one kernel for all three directions) instead of three dispatches.
    """
    if variant in GENERATED_VARIANTS:
        from ..kir import default_library

        nel, n = _check(u, dmat)
        outs = tuple(
            _check_out(u, o)
            for o in ((None, None, None) if out is None else out)
        )
        kernel = default_library().resolve("grad", n, nel, variant=variant)
        return kernel.fn(u, dmat, out=outs)
    o_r, o_s, o_t = (None, None, None) if out is None else out
    return (
        derivative(u, dmat, "r", variant, out=o_r),
        derivative(u, dmat, "s", variant, out=o_s),
        derivative(u, dmat, "t", variant, out=o_t),
    )


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
