"""The LoadBalancer: ties monitor, policy, and partitioner together.

The manager owns the *decision* side of dynamic load balancing; the
host (:class:`repro.core.cmtbone.CMTBone` or
:class:`repro.solver.driver.CMTSolver`) owns the *mechanics* — it
migrates its own field arrays and rebuilds its gather-scatter handle,
then commits the new assignment back.  Per step the host brackets its
work with ``monitor.begin_step()`` / ``monitor.end_step()`` and then
calls :meth:`LoadBalancer.propose`; when that returns a new
:class:`~repro.lb.assignment.ElementAssignment` the host migrates and
calls :meth:`commit`.

Every decision input is allgathered (``LB_monitor`` site), and policy
and partitioner are deterministic functions of that shared data, so
all ranks always agree on whether — and onto what — to rebalance.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .assignment import ElementAssignment
from .cost import (
    CostMonitor,
    RankCost,
    capacities_from_costs,
    cost_imbalance,
    gather_costs,
)
from .migrate import MigrationStats
from .partitioner import sfc_partition
from .policy import RebalancePolicy


class RebalanceEvent(NamedTuple):
    """Record of one committed rebalance (host-side stats attached)."""

    step: int
    imbalance_before: float
    stats: Optional[MigrationStats] = None


class LoadBalancer:
    """Per-rank load-balancing driver (one instance per rank)."""

    def __init__(
        self,
        comm,
        assignment: ElementAssignment,
        policy: RebalancePolicy,
    ) -> None:
        self.comm = comm
        self.assignment = assignment
        self.policy = policy
        self.monitor = CostMonitor(comm.clock)
        self.last_rebalance = -(10 ** 9)
        self.rebalances = 0
        self.events: List[RebalanceEvent] = []
        self.imbalance_history: List[float] = []
        self.last_costs: Optional[List[RankCost]] = None
        self._pending_imbalance = 1.0

    # -- decision ------------------------------------------------------------

    def propose(self, step: int) -> Optional[ElementAssignment]:
        """Check costs after ``step``; return a new assignment if due.

        Collective whenever the policy's check cadence fires (all ranks
        call the cost allgather together).  Returns ``None`` when no
        rebalance is warranted or the partitioner reproduces the
        current assignment.
        """
        if not self.policy.wants_check():
            return None
        if self.monitor.window_steps == 0:
            return None
        costs = gather_costs(self.comm, self.monitor)
        self.last_costs = costs
        imb = cost_imbalance(costs)
        self.imbalance_history.append(imb)
        if not self.policy.due(step, self.last_rebalance, imb):
            return None
        self._pending_imbalance = imb
        new = sfc_partition(
            self.assignment.mesh,
            self.assignment.nranks,
            capacities=capacities_from_costs(costs),
        )
        if new.same_as(self.assignment):
            return None
        return new

    # -- commit --------------------------------------------------------------

    def commit(
        self,
        assignment: ElementAssignment,
        step: int,
        stats: Optional[MigrationStats] = None,
        count: bool = True,
    ) -> None:
        """Adopt ``assignment`` after the host finished migrating.

        ``count=False`` restores a layout (e.g. from a checkpoint
        manifest) without recording a rebalance event.
        """
        self.assignment = assignment
        self.last_rebalance = step
        if count:
            self.rebalances += 1
            self.events.append(RebalanceEvent(
                step=step,
                imbalance_before=self._pending_imbalance,
                stats=stats,
            ))
        self._pending_imbalance = 1.0
        # Migration changes what the window's numbers mean.
        self.monitor.reset_window()

    # -- reporting -----------------------------------------------------------

    def describe(self) -> str:
        lines = [self.policy.describe()]
        lines.append(
            f"rebalances: {self.rebalances}"
            + (
                f" (last at step {self.last_rebalance})"
                if self.rebalances else ""
            )
        )
        if self.imbalance_history:
            lines.append(
                "measured imbalance (max/mean): "
                f"first={self.imbalance_history[0]:.3f} "
                f"last={self.imbalance_history[-1]:.3f}"
            )
        for ev in self.events:
            extra = ""
            if ev.stats is not None:
                extra = (
                    f", moved {ev.stats.elements_sent} el out / "
                    f"{ev.stats.elements_received} in"
                )
            lines.append(
                f"  step {ev.step}: imbalance "
                f"{ev.imbalance_before:.3f}{extra}"
            )
        return "\n".join(lines)
