"""Equation of state for the compressible flow system.

The solver reads the closure through ``pressure``, ``sound_speed``,
``temperature`` and ``total_energy``; :class:`IdealGas` is the
calorically perfect gas of the current CMT-nek release.  The paper's
roadmap (Section III-A) adds real-gas models later; no workload here
runs one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IdealGas:
    """Calorically perfect ideal gas.

    ``gamma`` is the ratio of specific heats and ``r_gas`` the specific
    gas constant (only needed to report temperature).  CMT-nek's
    current release uses exactly this closure ("real gas models will be
    added" later, per Section III-A).
    """

    gamma: float = 1.4
    r_gas: float = 287.0

    def __post_init__(self) -> None:
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.r_gas <= 0.0:
            raise ValueError(f"r_gas must be positive, got {self.r_gas}")

    def pressure(
        self, rho: np.ndarray, mom: np.ndarray, energy: np.ndarray
    ) -> np.ndarray:
        """p = (gamma - 1) (E - |m|^2 / (2 rho)).

        ``mom`` stacks the three momentum components on axis 0.
        """
        ke = 0.5 * np.sum(mom * mom, axis=0) / rho
        return (self.gamma - 1.0) * (energy - ke)

    def sound_speed(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """a = sqrt(gamma p / rho)."""
        return np.sqrt(self.gamma * p / rho)

    def temperature(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """T = p / (rho R)."""
        return p / (rho * self.r_gas)

    def total_energy(
        self, rho: np.ndarray, vel: np.ndarray, p: np.ndarray
    ) -> np.ndarray:
        """E = p/(gamma-1) + rho |v|^2 / 2 (inverse of :meth:`pressure`)."""
        return p / (self.gamma - 1.0) + 0.5 * rho * np.sum(vel * vel, axis=0)
