"""Explicit time integration: SSP Runge-Kutta 3 (Shu-Osher).

CMT-nek's current release is "an explicit solver for compressible
Navier-Stokes equations" (Section III-A); the standard explicit choice
in the Nek DG branch is the three-stage strong-stability-preserving
scheme of Shu & Osher::

    u1 = u  + dt L(u)
    u2 = 3/4 u + 1/4 (u1 + dt L(u1))
    u  = 1/3 u + 2/3 (u2 + dt L(u2))
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..kernels.workspace import Workspace

RhsFn = Callable[[np.ndarray], np.ndarray]


def step_ssprk3(
    u: np.ndarray, rhs: RhsFn, dt: float, work: Workspace
) -> np.ndarray:
    """Three-stage, third-order SSP RK (Shu-Osher).

    The stage vectors live in reusable scratch of ``work`` and only the
    returned state is a fresh array (it outlives the step as the new
    solution).  The in-place pipeline performs the elementwise
    operations of the formulas in the module docstring in the same
    order, so it is bitwise identical to them; tests enforce it
    (``tests/field_oracles.py``).
    """
    t = work.like(u, key="rk:t")
    u1 = work.like(u, key="rk:u1")
    u2 = work.like(u, key="rk:u2")
    # u1 = u + dt L(u)
    np.multiply(rhs(u), dt, out=t)
    np.add(u, t, out=u1)
    # u2 = 3/4 u + 1/4 (u1 + dt L(u1))
    np.multiply(rhs(u1), dt, out=t)
    np.add(u1, t, out=t)
    t *= 0.25
    np.multiply(u, 0.75, out=u2)
    u2 += t
    # u = (u + 2 (u2 + dt L(u2))) / 3
    np.multiply(rhs(u2), dt, out=t)
    np.add(u2, t, out=t)
    t *= 2.0
    np.add(u, t, out=t)
    return np.divide(t, 3.0, out=np.empty_like(u))


def cfl_dt(
    max_speed: float, dx_min: float, n: int, cfl: float = 0.5
) -> float:
    """CFL-limited step for an N-point spectral element.

    The smallest GLL spacing scales like ``dx * / N^2``; the classic DG
    estimate is ``dt = cfl * dx / (speed * N^2)``.
    """
    if max_speed <= 0:
        raise ValueError(f"max_speed must be positive, got {max_speed}")
    return cfl * dx_min / (max_speed * n * n)
