"""Viscous (Navier-Stokes) fluxes — the ``grad U`` part of Eq. (1).

The paper's conservation law is ``dU/dt + div f(U, grad U) = R`` and
CMT-nek is "an explicit solver for compressible *Navier-Stokes*
equations" (Section III-A).  This module supplies the gradient-
dependent part of the flux:

* Newtonian stress ``tau = mu (grad v + grad v^T) - 2/3 mu (div v) I``
  (Stokes hypothesis: no bulk viscosity),
* Fourier heat flux ``q = -kappa grad T`` with
  ``kappa = mu c_p / Pr`` (``Pr = 0.72``, air),

assembled into the three directional viscous fluxes

    Fv_a = (0, tau_a0, tau_a1, tau_a2, v . tau_a - q_a).

The solver subtracts them from the inviscid fluxes *before* the
divergence and the face-trace extraction, so the whole DG pipeline
(derivative kernels, full2face, gs exchange, SAT) is reused unchanged;
the shared interface flux then averages the two sides' viscous fluxes
— the standard central treatment, consistent for smooth solutions.
Velocity/temperature gradients are evaluated element-locally with the
same derivative kernels (12 more gradient evaluations per rhs — the
reason the paper's N^4 kernel dominates even harder in the viscous
branch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .divergence import gradient_physical
from .state import ENERGY, MX, RHO


#: Prandtl number (air).
PRANDTL = 0.72


@dataclass(frozen=True)
class ViscousModel:
    """Constant-coefficient Newtonian viscosity + Fourier conduction:
    dynamic viscosity ``mu``, conductivity ``mu c_p / PRANDTL``."""

    mu: float

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError(f"viscosity must be non-negative, got {self.mu}")

    def kappa(self, eos) -> float:
        """Thermal conductivity for the given gas model."""
        cp = eos.gamma * eos.r_gas / (eos.gamma - 1.0)
        return self.mu * cp / PRANDTL


def velocity_and_temperature(
    u: np.ndarray, eos
) -> Tuple[np.ndarray, np.ndarray]:
    """Primitive (velocity(3,...), temperature) from conserved vars."""
    rho = u[RHO]
    vel = u[MX : MX + 3] / rho
    p = eos.pressure(rho, u[MX : MX + 3], u[ENERGY])
    return vel, eos.temperature(rho, p)


def viscous_fluxes(
    u: np.ndarray,
    eos,
    model: ViscousModel,
    dmat: np.ndarray,
    jac: Tuple[float, float, float],
    variant: str = "fused",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three directional viscous fluxes ``(Fv_x, Fv_y, Fv_z)``.

    Gradients are element-local (collocation derivatives); each output
    has shape ``(5, nel, N, N, N)``.
    """
    vel, temp = velocity_and_temperature(u, eos)
    # grad_v[i][a] = d v_i / d x_a
    grad_v = [
        gradient_physical(vel[i], dmat, jac, variant=variant)
        for i in range(3)
    ]
    grad_t = gradient_physical(temp, dmat, jac, variant=variant)
    mu = model.mu
    kappa = model.kappa(eos)
    div_v = grad_v[0][0] + grad_v[1][1] + grad_v[2][2]
    lam = -2.0 / 3.0 * mu  # Stokes: no bulk viscosity

    # Stress tensor tau[i][a].
    tau = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for a in range(3):
            t = mu * (grad_v[i][a] + grad_v[a][i])
            if i == a:
                t = t + lam * div_v
            tau[i][a] = t

    out = []
    for a in range(3):
        f = np.zeros_like(u)
        for i in range(3):
            f[MX + i] = tau[i][a]
        work = sum(vel[i] * tau[i][a] for i in range(3))
        f[ENERGY] = work + kappa * grad_t[a]
        out.append(f)
    return tuple(out)  # type: ignore[return-value]


def viscous_flops(n: int, nel: int) -> float:
    """Work estimate: 12 gradient evaluations + pointwise assembly."""
    from ..kernels import derivatives

    return 4.0 * derivatives.flops(n, nel, ndirections=3) + 120.0 * nel * n**3
