"""Online per-rank cost monitoring for the load balancer.

Costs are *virtual-time* quantities: the monitor brackets each
timestep and reads the rank's :class:`repro.mpi.clock.VirtualClock`
``compute_time`` counter, so everything the host charged through
``comm.compute`` — roofline kernel charges, injected imbalance
factors, pack/unpack passes — lands in the measurement exactly as it
lands in the makespan.  All of it counts as element-volume work: the
solver carries no particles (the paper's CMT-bone sets sources to zero).

The measured per-element cost is the ground truth the repartitioner
consumes (as ``capacity = 1 / cost``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np


#: mpiP call-site label for the cost-exchange allgather.
SITE_LB_MONITOR = "LB_monitor"


class RankCost(NamedTuple):
    """One rank's accumulated cost over a measurement window."""

    rank: int
    nel: int
    volume_seconds: float
    steps: int = 1

    @property
    def per_element_seconds(self) -> float:
        """Volume seconds per element per step (0 if unmeasurable)."""
        denom = self.nel * max(self.steps, 1)
        return self.volume_seconds / denom if denom else 0.0


def cost_imbalance(costs: List[RankCost]) -> float:
    """max/mean of per-step cost across ranks (1.0 = balanced)."""
    totals = np.array([c.volume_seconds / max(c.steps, 1) for c in costs])
    mean = totals.mean()
    return float(totals.max() / mean) if mean > 0 else 1.0


def capacities_from_costs(costs: List[RankCost]) -> Optional[np.ndarray]:
    """Per-rank capacities (1 / per-element cost) from measurements.

    Returns ``None`` when any rank's cost is unmeasurable (zero
    elements or zero charged compute) — the caller falls back to
    uniform capacities rather than dividing by zero.
    """
    per_el = np.array([c.per_element_seconds for c in costs])
    if np.any(per_el <= 0):
        return None
    return 1.0 / per_el


class CostMonitor:
    """Brackets timesteps and measures their charged compute.

    Usage per step::

        monitor.begin_step()
        ...   # host runs one RK step, charging compute as usual
        monitor.end_step(nel=...)

    The step's compute delta is element-volume work.  :meth:`window_cost`
    aggregates all steps since the last :meth:`reset_window` (windows
    are reset after every rebalance, since migration changes what the
    numbers mean).
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._t0: Optional[float] = None
        self._win_volume = 0.0
        self._win_steps = 0
        self._win_el_steps = 0      # sum of nel over steps
        self.step_costs: List[RankCost] = []

    def begin_step(self) -> None:
        self._t0 = self._clock.compute_time

    def end_step(self, nel: int) -> RankCost:
        if self._t0 is None:
            raise RuntimeError("end_step without begin_step")
        volume = self._clock.compute_time - self._t0
        self._t0 = None
        cost = RankCost(rank=-1, nel=int(nel), volume_seconds=volume)
        self.step_costs.append(cost)
        self._win_volume += volume
        self._win_steps += 1
        self._win_el_steps += int(nel)
        return cost

    def window_cost(self, rank: int) -> RankCost:
        """Aggregate cost since the last window reset."""
        steps = max(self._win_steps, 1)
        return RankCost(
            rank=rank,
            nel=self._win_el_steps // steps,
            volume_seconds=self._win_volume,
            steps=self._win_steps,
        )

    @property
    def window_steps(self) -> int:
        return self._win_steps

    def reset_window(self) -> None:
        self._win_volume = 0.0
        self._win_steps = 0
        self._win_el_steps = 0


def gather_costs(comm, monitor: CostMonitor) -> List[RankCost]:
    """Allgather every rank's window cost (collective; ``LB_monitor``).

    The exchanged rows are tiny, but the call is a real collective on
    the virtual network, so monitoring overhead shows up honestly in
    the mpiP output under the ``LB_monitor`` call site.  A row is five
    float64 (40 bytes whatever the counters have grown to; the integer
    fields are exact below 2**53 and cast back on arrival).
    """
    mine = monitor.window_cost(comm.rank)
    # Slots 2 and 3 are unused but stay: the network model charges the
    # row's size, so a shorter row would move every --lb run's vtime.
    row = np.array(
        [mine.nel, mine.volume_seconds, 0.0, 0.0, mine.steps],
        dtype=np.float64,
    )
    gathered = comm.allgather(row, site=SITE_LB_MONITOR)
    return [
        RankCost(
            rank=r, nel=int(nel), volume_seconds=float(vol),
            steps=int(steps),
        )
        for r, (nel, vol, _, _, steps) in enumerate(gathered)
    ]
