"""Weighted SFC repartitioning: curve -> contiguous chunks -> refinement.

The recipe (following CMT-nek's dynamic load-balancing papers):

1. Order all elements along the Morton curve (:mod:`repro.lb.sfc`).
2. Cut the curve into ``nranks`` contiguous chunks so each rank's
   *predicted time* — (sum of its element weights) x (its measured
   per-unit-weight cost) — is as even as the integer granularity
   allows.  Rank capacities fold measured heterogeneity in: a rank
   whose per-element cost came out 1.4x the mean gets a proportionally
   smaller share of the curve.
3. A greedy boundary-refinement pass slides single elements across
   adjacent chunk boundaries while the bottleneck (max predicted time
   of the two ranks at that boundary) strictly decreases.

Element weights default to 1: every element carries the same volume
work, and the solver has no other (no particles, zero sources).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..mesh.box import BoxMesh
from .assignment import ElementAssignment
from .sfc import sfc_order

#: Sweeps of the boundary-refinement pass; each sweep visits every
#: internal chunk boundary once, so a handful converges in practice.
REFINE_SWEEPS = 4


def chunk_bounds(
    cumw: np.ndarray, nranks: int, capacities: np.ndarray
) -> np.ndarray:
    """Split positions for capacity-weighted contiguous chunks.

    ``cumw`` is the cumulative element weight along the curve
    (``cumw[-1]`` = total).  Returns ``bounds`` of length ``nranks+1``
    with ``bounds[0] == 0`` and ``bounds[-1] == len(cumw)``; rank ``r``
    gets curve slots ``bounds[r]:bounds[r+1]``.  Every chunk is forced
    non-empty (required downstream: empty ranks have no gather-scatter
    presence).
    """
    nel = cumw.size
    if nel < nranks:
        raise ValueError(f"{nel} elements cannot fill {nranks} ranks")
    targets = np.cumsum(capacities) / capacities.sum() * cumw[-1]
    bounds = np.empty(nranks + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[1:] = np.searchsorted(cumw, targets - 1e-12) + 1
    bounds[-1] = nel
    # Enforce monotone, >= 1 element per chunk.
    for r in range(1, nranks):
        bounds[r] = max(bounds[r], bounds[r - 1] + 1)
    for r in range(nranks - 1, 0, -1):
        bounds[r] = min(bounds[r], bounds[r + 1] - 1)
    return bounds


def refine_bounds(
    cumw: np.ndarray,
    bounds: np.ndarray,
    unit_costs: np.ndarray,
) -> np.ndarray:
    """Greedy single-element moves across adjacent chunk boundaries.

    At each internal boundary, moving one element left or right is
    accepted iff it strictly lowers ``max(time_left, time_right)``
    where ``time_r = chunk_weight_r * unit_costs[r]``.  This cleans up
    the integer-granularity error the searchsorted cut leaves behind.
    """
    bounds = bounds.copy()
    nranks = bounds.size - 1

    def chunk_w(r: int) -> float:
        lo, hi = bounds[r], bounds[r + 1]
        return float(cumw[hi - 1] - (cumw[lo - 1] if lo > 0 else 0.0))

    for _ in range(REFINE_SWEEPS):
        improved = False
        for r in range(nranks - 1):
            wl, wr = chunk_w(r), chunk_w(r + 1)
            cl, cr = unit_costs[r], unit_costs[r + 1]
            cur = max(wl * cl, wr * cr)
            b = bounds[r + 1]
            # Move the boundary element leftward (rank r+1 -> r).
            if b + 1 < bounds[r + 2]:
                dw = float(cumw[b] - cumw[b - 1])
                if max((wl + dw) * cl, (wr - dw) * cr) < cur:
                    bounds[r + 1] += 1
                    improved = True
                    continue
            # Move the last element of rank r rightward (r -> r+1).
            if b - 1 > bounds[r]:
                dw = float(cumw[b - 1] - cumw[b - 2])
                if max((wl - dw) * cl, (wr + dw) * cr) < cur:
                    bounds[r + 1] -= 1
                    improved = True
        if not improved:
            break
    return bounds


def sfc_partition(
    mesh: BoxMesh,
    nranks: int,
    weights: Optional[Sequence[float]] = None,
    capacities: Optional[Sequence[float]] = None,
) -> ElementAssignment:
    """Build an :class:`ElementAssignment` by weighted SFC chunking.

    Parameters
    ----------
    weights:
        Per-element work, indexed by element lex id (default: uniform).
    capacities:
        Per-rank relative speed (elements-per-second); a rank with
        twice the capacity receives twice the weight.  Feeding
        ``1 / measured_per_element_seconds`` here is how measured
        imbalance is corrected.  Default: uniform.
    """
    order = sfc_order(tuple(mesh.shape))
    if weights is None:
        w = np.ones(order.size, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)[order]
        if w.size != order.size:
            raise ValueError(
                f"{w.size} weights for {order.size} elements"
            )
        if np.any(w <= 0):
            raise ValueError("element weights must be positive")
    if capacities is None:
        cap = np.ones(nranks, dtype=np.float64)
    else:
        cap = np.asarray(capacities, dtype=np.float64)
        if cap.shape != (nranks,):
            raise ValueError(f"need {nranks} capacities, got {cap.shape}")
        if np.any(cap <= 0):
            raise ValueError("rank capacities must be positive")

    cumw = np.cumsum(w)
    bounds = refine_bounds(cumw, chunk_bounds(cumw, nranks, cap), 1.0 / cap)

    owner = np.empty(mesh.nelgt, dtype=np.int64)
    for r in range(nranks):
        owner[order[bounds[r]:bounds[r + 1]]] = r
    return ElementAssignment(mesh, nranks, owner)
