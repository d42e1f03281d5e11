"""Exact Riemann solver for the 1-D Euler equations (Toro's method).

The reference solution generator for shock-tube validation: given left
and right states, the star-region pressure is found by Newton
iteration on Toro's pressure function, and :meth:`RiemannSolution.sample`
evaluates the exact self-similar solution at any ``x/t`` — rarefaction
fans, contacts, and shocks included.  Used to validate the DG solver's
shock-capturing pipeline on the Sod problem (the canonical compressible
benchmark) without trusting any discretized code as "truth".
:func:`sod_problem` builds that problem for the DG solver.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from ..mesh import BoxMesh, Partition
from ..records import checked
from .boundary import BoundarySpec
from .driver import CMTSolver, SolverConfig
from .eos import IdealGas
from .shock import ShockFilter
from .state import from_primitives


@checked
class PrimitiveState(NamedTuple):
    """1-D primitive state (density, velocity, pressure)."""

    rho: float
    u: float
    p: float

    def _check(self) -> None:
        if self.rho <= 0 or self.p <= 0:
            raise ValueError(
                f"need positive density/pressure, got rho={self.rho}, "
                f"p={self.p}"
            )

    def sound_speed(self, gamma: float) -> float:
        return float(np.sqrt(gamma * self.p / self.rho))


#: The classic Sod (1978) initial states.
SOD_LEFT = PrimitiveState(rho=1.0, u=0.0, p=1.0)
SOD_RIGHT = PrimitiveState(rho=0.125, u=0.0, p=0.1)

#: Ratio of specific heats of the exact solution: the solver's gas.
GAMMA = IdealGas().gamma

#: Cap on the Newton steps for the star pressure, and their relative
#: convergence tolerance (also the floor of the initial guess).
NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-12


def sod_problem(nranks: int, n: int, nelx: int, gs_method: str,
                imbalance: float = 0.0, lb_policy=None,
                kernel_variant: str = "fused"):
    """The ``setup(comm) -> (solver, state)`` factory of the Sod campaign.

    ``nelx`` elements of order ``n`` in a row along x, one slab of them
    per rank, Dirichlet ends at the Sod states, the adaptive shock
    filter on, and a tanh-smoothed initial discontinuity at x = 0.5.
    """
    mesh = BoxMesh(shape=(nelx, 1, 1), n=n, periodic=(False, True, True),
                   lengths=(1.0, 0.25, 0.25))
    part = Partition(mesh, proc_shape=(nranks, 1, 1))

    def _dirichlet(s):
        e = s.p / 0.4 + 0.5 * s.rho * s.u**2
        return BoundarySpec(
            "dirichlet", state=(s.rho, s.rho * s.u, 0.0, 0.0, e)
        )

    def setup(comm):
        bc = {0: _dirichlet(SOD_LEFT), 1: _dirichlet(SOD_RIGHT)}
        solver = CMTSolver(
            comm, part,
            config=SolverConfig(
                gs_method=gs_method,
                cfl=0.3,
                shock_filter=ShockFilter(n=n, threshold=-6.0, ramp=2.0),
                boundaries=bc,
                compute_imbalance=imbalance,
                lb=lb_policy,
                kernel_variant=kernel_variant,
            ),
        )
        coords = np.stack(
            [mesh.element_nodes(ec)
             for ec in part.local_elements(comm.rank)],
            axis=1,
        )
        x = coords[0]
        blend = 0.5 * (1.0 + np.tanh((x - 0.5) / 0.02))
        rho = SOD_LEFT.rho + (SOD_RIGHT.rho - SOD_LEFT.rho) * blend
        p = SOD_LEFT.p + (SOD_RIGHT.p - SOD_LEFT.p) * blend
        st = from_primitives(rho, np.zeros((3,) + rho.shape), p)
        return solver, st

    return setup


def _pressure_function(
    p: float, state: PrimitiveState, gamma: float
) -> Tuple[float, float]:
    """Toro's f_K(p) and its derivative for one side."""
    a = state.sound_speed(gamma)
    if p > state.p:  # shock branch
        ak = 2.0 / ((gamma + 1.0) * state.rho)
        bk = (gamma - 1.0) / (gamma + 1.0) * state.p
        sq = np.sqrt(ak / (p + bk))
        f = (p - state.p) * sq
        df = sq * (1.0 - 0.5 * (p - state.p) / (p + bk))
    else:  # rarefaction branch
        exponent = (gamma - 1.0) / (2.0 * gamma)
        f = (2.0 * a / (gamma - 1.0)) * ((p / state.p) ** exponent - 1.0)
        df = (1.0 / (state.rho * a)) * (p / state.p) ** (-(gamma + 1.0)
                                                         / (2.0 * gamma))
    return float(f), float(df)


class RiemannSolution(NamedTuple):
    """The exact solution of one Riemann problem."""

    left: PrimitiveState
    right: PrimitiveState
    gamma: float
    p_star: float
    u_star: float

    # -- star densities -----------------------------------------------

    def _star_density(self, side: PrimitiveState) -> float:
        g = self.gamma
        ratio = self.p_star / side.p
        if self.p_star > side.p:  # shock
            gm = (g - 1.0) / (g + 1.0)
            return side.rho * (ratio + gm) / (gm * ratio + 1.0)
        return side.rho * ratio ** (1.0 / g)  # isentropic

    @property
    def rho_star_left(self) -> float:
        return self._star_density(self.left)

    @property
    def rho_star_right(self) -> float:
        return self._star_density(self.right)

    # -- wave speeds ------------------------------------------------------

    def shock_speed_right(self) -> float:
        """Speed of the right wave if it is a shock."""
        g = self.gamma
        a = self.right.sound_speed(g)
        return self.right.u + a * np.sqrt(
            (g + 1.0) / (2.0 * g) * self.p_star / self.right.p
            + (g - 1.0) / (2.0 * g)
        )

    def shock_speed_left(self) -> float:
        g = self.gamma
        a = self.left.sound_speed(g)
        return self.left.u - a * np.sqrt(
            (g + 1.0) / (2.0 * g) * self.p_star / self.left.p
            + (g - 1.0) / (2.0 * g)
        )

    # -- sampling ------------------------------------------------------------

    def sample(self, xi: float) -> PrimitiveState:
        """Exact state at similarity coordinate ``xi = x / t``."""
        g = self.gamma
        if xi <= self.u_star:
            return self._sample_left(xi)
        return self._sample_right(xi)

    def _sample_left(self, xi: float) -> PrimitiveState:
        g = self.gamma
        s = self.left
        a = s.sound_speed(g)
        if self.p_star > s.p:  # left shock
            if xi <= self.shock_speed_left():
                return s
            return PrimitiveState(self.rho_star_left, self.u_star,
                                  self.p_star)
        # left rarefaction
        a_star = a * (self.p_star / s.p) ** ((g - 1.0) / (2.0 * g))
        head = s.u - a
        tail = self.u_star - a_star
        if xi <= head:
            return s
        if xi >= tail:
            return PrimitiveState(self.rho_star_left, self.u_star,
                                  self.p_star)
        # inside the fan
        u = (2.0 / (g + 1.0)) * (a + (g - 1.0) / 2.0 * s.u + xi)
        a_loc = a - (g - 1.0) / 2.0 * (u - s.u)
        rho = s.rho * (a_loc / a) ** (2.0 / (g - 1.0))
        p = s.p * (a_loc / a) ** (2.0 * g / (g - 1.0))
        return PrimitiveState(rho, u, p)

    def _sample_right(self, xi: float) -> PrimitiveState:
        g = self.gamma
        s = self.right
        a = s.sound_speed(g)
        if self.p_star > s.p:  # right shock
            if xi >= self.shock_speed_right():
                return s
            return PrimitiveState(self.rho_star_right, self.u_star,
                                  self.p_star)
        # right rarefaction
        a_star = a * (self.p_star / s.p) ** ((g - 1.0) / (2.0 * g))
        head = s.u + a
        tail = self.u_star + a_star
        if xi >= head:
            return s
        if xi <= tail:
            return PrimitiveState(self.rho_star_right, self.u_star,
                                  self.p_star)
        u = (2.0 / (g + 1.0)) * (-a + (g - 1.0) / 2.0 * s.u + xi)
        a_loc = a + (g - 1.0) / 2.0 * (u - s.u)
        rho = s.rho * (a_loc / a) ** (2.0 / (g - 1.0))
        p = s.p * (a_loc / a) ** (2.0 * g / (g - 1.0))
        return PrimitiveState(rho, u, p)

    def profile(
        self, x: np.ndarray, t: float, x0: float = 0.0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, u, p) arrays for positions ``x`` at time ``t > 0``."""
        if t <= 0:
            raise ValueError("profile needs t > 0")
        rho = np.empty_like(np.asarray(x, dtype=float))
        u = np.empty_like(rho)
        p = np.empty_like(rho)
        for i, xi in enumerate((np.asarray(x) - x0) / t):
            st = self.sample(float(xi))
            rho[i], u[i], p[i] = st.rho, st.u, st.p
        return rho, u, p


def exact_riemann(
    left: PrimitiveState, right: PrimitiveState
) -> RiemannSolution:
    """Solve the Riemann problem exactly (Newton on the star pressure).

    Raises if the data would produce vacuum
    (``2 a_L/(g-1) + 2 a_R/(g-1) <= u_R - u_L``).
    """
    g = GAMMA
    a_l = left.sound_speed(g)
    a_r = right.sound_speed(g)
    du = right.u - left.u
    if 2.0 * (a_l + a_r) / (g - 1.0) <= du:
        raise ValueError("initial states lead to vacuum")
    # Two-rarefaction initial guess (robust and positive).
    z = (g - 1.0) / (2.0 * g)
    p0 = (
        (a_l + a_r - 0.5 * (g - 1.0) * du)
        / (a_l / left.p**z + a_r / right.p**z)
    ) ** (1.0 / z)
    p = max(p0, NEWTON_TOL)
    for _ in range(NEWTON_MAX_ITER):
        f_l, df_l = _pressure_function(p, left, g)
        f_r, df_r = _pressure_function(p, right, g)
        delta = (f_l + f_r + du) / (df_l + df_r)
        p_new = p - delta
        if p_new <= 0:
            p_new = 0.5 * p
        if abs(p_new - p) < NEWTON_TOL * max(p, 1.0):
            p = p_new
            break
        p = p_new
    f_l, _ = _pressure_function(p, left, g)
    f_r, _ = _pressure_function(p, right, g)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)
    return RiemannSolution(
        left=left, right=right, gamma=g, p_star=float(p),
        u_star=float(u_star),
    )
