"""Inviscid (Euler) flux functions for the conserved vector.

The flux of ``U = (rho, m_x, m_y, m_z, E)`` along axis ``a`` with
velocity ``v = m / rho`` and pressure ``p``::

    F_a = (m_a,
           m_x v_a + p delta_{xa},
           m_y v_a + p delta_{ya},
           m_z v_a + p delta_{za},
           (E + p) v_a)

These are the volume-term ingredients of the paper's conceptual model:
"CMT-nek involves computing the (1) source terms, (2) flux divergence,
and (3) numerical flux for all the elements."
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .eos import IdealGas
from .state import ENERGY, MX, RHO


def euler_flux(
    u: np.ndarray, eos: IdealGas, axis: int
) -> np.ndarray:
    """Euler flux of conserved array ``u`` (5, ...) along ``axis`` (0..2)."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1, or 2, got {axis}")
    rho = u[RHO]
    mom = u[MX : MX + 3]
    energy = u[ENERGY]
    p = eos.pressure(rho, mom, energy)
    va = mom[axis] / rho
    f = np.empty_like(u)
    f[RHO] = mom[axis]
    for c in range(3):
        f[MX + c] = mom[c] * va
    f[MX + axis] += p
    f[ENERGY] = (energy + p) * va
    return f


def euler_fluxes(
    u: np.ndarray,
    eos: IdealGas,
    out: "Tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All three directional fluxes, sharing one pressure evaluation.

    ``out``, when given, is a triple of preallocated ``(5, ...)``
    result arrays (one per direction) that receive the fluxes in
    place — same stores, bitwise-identical values.
    """
    rho = u[RHO]
    mom = u[MX : MX + 3]
    energy = u[ENERGY]
    p = eos.pressure(rho, mom, energy)
    h = energy + p
    fluxes = []
    for axis in range(3):
        va = mom[axis] / rho
        f = np.empty_like(u) if out is None else out[axis]
        if f.shape != u.shape:
            raise ValueError(
                f"out[{axis}] has shape {f.shape}, field has {u.shape}"
            )
        f[RHO] = mom[axis]
        for c in range(3):
            f[MX + c] = mom[c] * va
        f[MX + axis] += p
        f[ENERGY] = h * va
        fluxes.append(f)
    return tuple(fluxes)  # type: ignore[return-value]


def wavespeed(u: np.ndarray, eos: IdealGas, axis: int) -> np.ndarray:
    """Pointwise maximal signal speed |v_a| + a along ``axis``."""
    rho = u[RHO]
    mom = u[MX : MX + 3]
    p = eos.pressure(rho, mom, u[ENERGY])
    a = eos.sound_speed(rho, p)
    return np.abs(mom[axis] / rho) + a


def flux_flops(n: int, nel: int) -> float:
    """Approximate flop count for one 3-direction flux evaluation.

    Pointwise arithmetic: ~60 flops per grid point covers pressure,
    three velocities, and the 15 flux components.
    """
    return 60.0 * nel * n**3
