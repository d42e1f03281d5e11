"""Reference tensor-product kernels: the hand-written loops, GEMMs and
einsums that ``src/repro/kernels`` shipped before every contraction
moved to ``repro.kir``.  The bitwise matrix in ``test_kir.py`` holds
each public variant to the matching function here; nothing in ``src/``
imports this module.
"""

import numpy as np


def dudr_basic(u, d):
    """One ``D @ u[e, :, :, k]`` per (element, fixed-t) (r, s)-plane."""
    out = np.empty_like(u)
    for e in range(u.shape[0]):
        for k in range(u.shape[1]):
            out[e, :, :, k] = d @ u[e, :, :, k]
    return out


def duds_basic(u, d):
    """One ``D @ u[e, i]`` per (element, fixed-r) (s, t)-plane."""
    out = np.empty_like(u)
    for e in range(u.shape[0]):
        for i in range(u.shape[1]):
            out[e, i] = d @ u[e, i]
    return out


def dudt_basic(u, d):
    """One ``u[e, i] @ D.T`` per (element, fixed-r) (s, t)-plane."""
    out = np.empty_like(u)
    dt = d.T
    for e in range(u.shape[0]):
        for i in range(u.shape[1]):
            out[e, i] = u[e, i] @ dt
    return out


def dudr_fused(u, d):
    """One (N, N) x (N, N^2) GEMM per element."""
    nel, n = u.shape[:2]
    out = np.empty_like(u)
    np.matmul(d, u.reshape(nel, n, n * n), out=out.reshape(nel, n, n * n))
    return out


def duds_fused(u, d):
    """Batched (N, N) x (N, N) matmul over (element, r)."""
    nel, n = u.shape[:2]
    out = np.empty_like(u)
    np.matmul(d, u.reshape(nel * n, n, n), out=out.reshape(nel * n, n, n))
    return out


def dudt_fused(u, d):
    """One (N^2, N) x (N, N) GEMM per element."""
    nel, n = u.shape[:2]
    out = np.empty_like(u)
    np.matmul(u.reshape(nel, n * n, n), d.T, out=out.reshape(nel, n * n, n))
    return out


def dudr_einsum(u, d):
    return np.einsum("im,emjk->eijk", d, u, optimize=True)


def duds_einsum(u, d):
    return np.einsum("jm,eimk->eijk", d, u, optimize=True)


def dudt_einsum(u, d):
    return np.einsum("km,eijm->eijk", d, u, optimize=True)


#: (direction, variant) -> oracle; ``generated`` is a spelling of ``fused``.
DERIVATIVE = {
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
DERIVATIVE.update(
    {(d, "generated"): DERIVATIVE[d, "fused"] for d in "rst"}
)


def derivative(u, d, direction, variant="fused"):
    return DERIVATIVE[direction, variant](u, d)


def grad(u, d, variant="fused"):
    return tuple(derivative(u, d, x, variant) for x in "rst")


def apply_tensor(op, u):
    """``op`` (M, N) along all three axes of (nel, N, N, N): three
    batched GEMMs in r, s, t order (the dealias / modal-transform chain)."""
    nel, n = u.shape[:2]
    m = op.shape[0]
    t1 = np.matmul(op, u.reshape(nel, n, n * n)).reshape(nel, m, n, n)
    t2 = np.matmul(op, t1.reshape(nel * m, n, n)).reshape(nel, m, m, n)
    return np.matmul(t2.reshape(nel, m * m, n), op.T).reshape(nel, m, m, m)
