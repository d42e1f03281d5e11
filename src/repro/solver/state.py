"""Conserved-variable state for the compressible flow solver.

The conservation law (paper Eq. 1) is solved for the vector
``U = (rho, rho u, rho v, rho w, E)`` — five components, stored as one
array of shape ``(5, nel, N, N, N)`` so each component is directly a
batch of element fields the derivative kernels accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .eos import IdealGas

#: Number of conserved components (Nek's ``toteq``).
NEQ = 5
#: Component indices.
RHO, MX, MY, MZ, ENERGY = range(NEQ)
#: Component names for reports.
COMPONENT_NAMES = ("rho", "rho_u", "rho_v", "rho_w", "E")


@dataclass(eq=False, repr=False)
class FlowState:
    """One rank's conserved variables plus the gas model.

    ``u`` has shape ``(5, nel, N, N, N)``.
    """

    u: np.ndarray
    eos: IdealGas

    def __post_init__(self) -> None:
        if self.u.ndim != 5 or self.u.shape[0] != NEQ:
            raise ValueError(
                f"state must be (5, nel, N, N, N), got {self.u.shape}"
            )

    @property
    def nel(self) -> int:
        return self.u.shape[1]

    @property
    def n(self) -> int:
        return self.u.shape[2]

    # -- primitive variables -------------------------------------------

    def velocity(self) -> np.ndarray:
        """(3, nel, N, N, N) velocity components."""
        return self.u[MX:ENERGY] / self.u[RHO]

    def pressure(self) -> np.ndarray:
        return self.eos.pressure(self.u[RHO], self.u[MX:ENERGY], self.u[ENERGY])

    def sound_speed(self) -> np.ndarray:
        return self.eos.sound_speed(self.u[RHO], self.pressure())

    def max_wavespeed(self) -> float:
        """Largest |v_axis| + a over all points and axes (CFL speed)."""
        vel = self.velocity()
        a = self.sound_speed()
        return float(np.max(np.abs(vel) + a[None]))

    def is_physical(self) -> bool:
        """Positive density and pressure everywhere."""
        return bool(np.all(self.u[RHO] > 0.0) and np.all(self.pressure() > 0.0))

    def copy(self) -> "FlowState":
        return FlowState(u=self.u.copy(), eos=self.eos)


def uniform_state(
    nel: int,
    n: int,
    rho: float = 1.0,
    vel: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    p: float = 1.0,
) -> FlowState:
    """A constant (freestream) state — the exactness test for any DG code."""
    eos = IdealGas()
    u = np.empty((NEQ, nel, n, n, n))
    u[RHO] = rho
    for c, v in enumerate(vel):
        u[MX + c] = rho * v
    v3 = np.array(vel).reshape(3, 1, 1, 1, 1)
    u[ENERGY] = eos.total_energy(
        np.full((nel, n, n, n), rho), np.broadcast_to(v3, (3, nel, n, n, n)), p
    )
    return FlowState(u=u, eos=eos)


def from_primitives(
    rho: np.ndarray, vel: np.ndarray, p: np.ndarray, eos: IdealGas | None = None
) -> FlowState:
    """Build conserved state from (rho, velocity(3,...), pressure)."""
    eos = eos or IdealGas()
    u = np.empty((NEQ,) + rho.shape)
    u[RHO] = rho
    for c in range(3):
        u[MX + c] = rho * vel[c]
    u[ENERGY] = eos.total_energy(rho, vel, p)
    return FlowState(u=u, eos=eos)
