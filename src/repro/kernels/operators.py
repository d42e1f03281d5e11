"""Reference-element operators: derivative and interpolation matrices.

The paper abstracts CMT-nek's flux-divergence term as "matrix
multiplication operations where the derivative matrix of size (N, N)
operates over a 3D data (N, N, N, Nel)".  This module builds that
derivative matrix (and the dealiasing interpolation matrices) on the
GLL reference grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gll import barycentric_weights, gll_points, lagrange_basis_at


@lru_cache(maxsize=None)
def derivative_matrix(n: int) -> np.ndarray:
    """First-derivative collocation matrix ``D`` on the ``n`` GLL points.

    ``(D u)[i] = u'(x_i)`` exactly for polynomials of degree <= n-1.
    Built from barycentric weights with the negative-sum trick for the
    diagonal, which keeps each row summing to machine-zero (the
    derivative of a constant vanishes identically).
    """
    x = gll_points(n)
    w = barycentric_weights(n)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    dmat = (w[None, :] / w[:, None]) / d
    np.fill_diagonal(dmat, 0.0)
    np.fill_diagonal(dmat, -dmat.sum(axis=1))
    dmat.flags.writeable = False
    return dmat


@lru_cache(maxsize=None)
def interpolation_matrix(n_from: int, n_to: int) -> np.ndarray:
    """Interpolation matrix from the ``n_from``-GLL to ``n_to``-GLL grid.

    Shape ``(n_to, n_from)``.  Used for the dealiasing step the paper
    describes ("an element is first mapped to a finer mesh and later
    mapped back to the regular mesh").
    """
    xq = gll_points(n_to)
    mat = lagrange_basis_at(n_from, xq)
    mat = np.ascontiguousarray(mat)
    mat.flags.writeable = False
    return mat


def dealias_order(n: int) -> int:
    """Fine-grid size for over-integration dealiasing: ceil(3N/2)."""
    return (3 * n + 1) // 2
