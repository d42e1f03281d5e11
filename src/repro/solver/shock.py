"""Shock capturing: modal smoothness sensing + spectral filtering.

Second item on the CMT-nek roadmap (Section III-A): "complete
multiphase coupling, **shock capturing**, lagrangian point particle
tracking, and real gas models will be added".  This module implements
the standard spectral-element approach:

* a **Persson-Peraire modal smoothness sensor**: transform each
  element to the Legendre modal basis and measure how much energy sits
  in the highest mode — smooth solutions decay spectrally, shocks
  don't;
* an **exponential modal filter** (spectral-vanishing-viscosity style)
  applied adaptively where the sensor fires.

Filtering is element-local and *conservative*: GLL quadrature
integrates Legendre modes exactly up to degree ``2N-3``, and
``integral(P_k) = 0`` for ``k >= 1``, so damping the non-constant
modes leaves every element's mass/momentum/energy integral untouched
(tested to roundoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..kernels.gll import gll_points, legendre_and_derivative
from ..kir.library import default_library

__all__ = [
    "ShockFilter",
    "exponential_sigma",
    "modal_energy_fraction",
    "modal_to_nodal",
    "nodal_to_modal",
    "smoothness_sensor",
    "vandermonde",
]

#: ``log10`` floor of :func:`smoothness_sensor` (numerically zero
#: top-shell energy).
SENSOR_FLOOR = -16.0


@lru_cache(maxsize=None)
def vandermonde(n: int) -> np.ndarray:
    """Legendre Vandermonde on the GLL grid: ``V[i, k] = P_k(x_i)``."""
    x = np.asarray(gll_points(n))
    v = np.empty((n, n))
    for k in range(n):
        v[:, k], _ = legendre_and_derivative(k, x)
    v.flags.writeable = False
    return v


@lru_cache(maxsize=None)
def inverse_vandermonde(n: int) -> np.ndarray:
    """Nodal -> modal transform (inverse of :func:`vandermonde`).

    Computed via the discrete orthogonality of Legendre polynomials
    under GLL quadrature (exact for ``j + k <= 2n - 3``); the closed
    form is better conditioned than a direct matrix inverse for the
    highest mode, so we simply invert — n <= 64 keeps this benign.
    """
    vinv = np.linalg.inv(vandermonde(n))
    vinv.flags.writeable = False
    return vinv


def _apply_tensor3(op: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a square 1-D operator along all three axes of (nel,N,N,N).

    The dealias transfer with ``M == N``: the library's ``interp_fine``
    kernel, given the Vandermonde operator instead of an interpolation.
    """
    nel, n = u.shape[0], u.shape[1]
    if u.shape[1:] != (n, n, n):
        raise ValueError(f"expected (nel, N, N, N), got {u.shape}")
    return default_library().resolve("interp_fine", n, nel, m=n).fn(u, op)


def nodal_to_modal(u: np.ndarray) -> np.ndarray:
    """Element fields (nel, N, N, N) -> Legendre modal coefficients."""
    if u.ndim != 4:
        raise ValueError(f"expected (nel, N, N, N), got {u.shape}")
    return _apply_tensor3(np.asarray(inverse_vandermonde(u.shape[1])), u)


def modal_to_nodal(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`nodal_to_modal`."""
    if c.ndim != 4:
        raise ValueError(f"expected (nel, N, N, N), got {c.shape}")
    return _apply_tensor3(np.asarray(vandermonde(c.shape[1])), c)


def modal_energy_fraction(u: np.ndarray) -> np.ndarray:
    """Fraction of each element's modal energy in the top shell.

    The "top shell" is every coefficient with max(i, j, k) = N-1.
    Returns shape ``(nel,)`` values in [0, 1].
    """
    c = nodal_to_modal(u)
    n = u.shape[1]
    # Legendre L2 norms: ||P_k||^2 = 2/(2k+1) per direction.
    norm1d = 2.0 / (2.0 * np.arange(n) + 1.0)
    w3 = (
        norm1d[:, None, None]
        * norm1d[None, :, None]
        * norm1d[None, None, :]
    )
    energy = c * c * w3[None]
    total = energy.sum(axis=(1, 2, 3))
    inner = energy[:, : n - 1, : n - 1, : n - 1].sum(axis=(1, 2, 3))
    top = total - inner
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(total > 0, top / total, 0.0)
    return np.clip(frac, 0.0, 1.0)


def smoothness_sensor(u: np.ndarray) -> np.ndarray:
    """Persson-Peraire sensor: ``log10`` of the top-shell energy share.

    Smooth (spectrally resolved) data gives strongly negative values;
    under-resolved/shocked elements approach 0.  ``SENSOR_FLOOR``
    bounds the result for numerically zero top shells.
    """
    frac = modal_energy_fraction(u)
    with np.errstate(divide="ignore"):
        s = np.log10(np.maximum(frac, 10.0**SENSOR_FLOOR))
    return s


#: The exponential filter's strength, last undamped mode and order (the
#: usual SEM filter controls), one setting for every filter.
ALPHA, CUTOFF, ORDER = 36.0, 1, 8


def exponential_sigma(n: int) -> np.ndarray:
    """Per-mode damping factors of the exponential filter.

    ``sigma_k = 1`` for ``k <= CUTOFF``; above it they decay as
    ``exp(-ALPHA ((k - kc) / (N - 1 - kc))^ORDER)``, reaching
    ``exp(-ALPHA)`` (machine-epsilon for 36) at the top mode.  Mode 0
    is always untouched — that is what makes the filter conservative.
    """
    if n <= CUTOFF:
        raise ValueError(f"the filter needs N > {CUTOFF}, got {n}")
    k = np.arange(n, dtype=np.float64)
    sigma = np.ones(n)
    span = max(n - 1 - CUTOFF, 1)
    hi = k > CUTOFF
    sigma[hi] = np.exp(-ALPHA * (((k[hi] - CUTOFF) / span) ** ORDER))
    return sigma


@dataclass
class ShockFilter:
    """Adaptive exponential modal filter for the DG solver.

    ``threshold`` is the sensor level above which an element is
    treated as troubled; the filter strength ramps linearly from 0 at
    ``threshold`` to 1 at ``threshold + ramp``, towards the damping of
    :func:`exponential_sigma`.
    """

    n: int
    threshold: float = -4.0
    ramp: float = 2.0

    def __post_init__(self) -> None:
        self._sigma = exponential_sigma(self.n)
        s = self._sigma
        self._sigma3 = (
            s[:, None, None] * s[None, :, None] * s[None, None, :]
        )

    def strength(self, sensor: np.ndarray) -> np.ndarray:
        """Per-element filter strength in [0, 1] from sensor values."""
        return np.clip((sensor - self.threshold) / self.ramp, 0.0, 1.0)

    def apply(self, u: np.ndarray, sensor_field: np.ndarray | None = None
              ) -> np.ndarray:
        """Filter element fields adaptively.

        ``u`` is ``(nel, N, N, N)``.  The sensor is evaluated on
        ``sensor_field`` (default: ``u`` itself — CMT-nek senses on
        density); elements below threshold pass through untouched.
        """
        if u.shape[1] != self.n:
            raise ValueError(
                f"filter built for N={self.n}, got field N={u.shape[1]}"
            )
        sensor = smoothness_sensor(
            u if sensor_field is None else sensor_field
        )
        theta = self.strength(sensor)
        if not np.any(theta > 0):
            return u
        return self._damp(u, theta)

    def _damp(self, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """One modal round trip of ``u`` at per-element strength ``theta``."""
        c = nodal_to_modal(u)
        t = theta[:, None, None, None]
        damped = c * (1.0 + t * (self._sigma3[None] - 1.0))
        out = modal_to_nodal(damped)
        # Elements with theta == 0 keep their bits (no transform noise).
        untouched = theta == 0.0
        if np.any(untouched):
            out[untouched] = u[untouched]
        return out

    def apply_state(self, state_u: np.ndarray) -> np.ndarray:
        """Filter all conserved components, sensing once on density.

        The ``(neq, nel, N, N, N)`` state goes through one modal round
        trip as ``neq * nel`` elements; the result is always a new array.
        """
        if state_u.ndim != 5:
            raise ValueError(
                f"expected (neq, nel, N, N, N), got {state_u.shape}"
            )
        if state_u.shape[2] != self.n:
            raise ValueError(
                f"filter built for N={self.n}, got field N={state_u.shape[2]}"
            )
        theta = self.strength(smoothness_sensor(state_u[0]))
        if not np.any(theta > 0):
            return state_u.copy()
        stack = state_u.reshape((-1,) + state_u.shape[2:])
        return self._damp(stack, np.tile(theta, len(state_u))).reshape(
            state_u.shape
        )
