"""Dynamic load balancing: cost monitoring, SFC repartitioning, migration.

The paper's Fig. 9 analysis reads MPI_Wait dominance as "the need for
better load balancing in the application"; CMT-nek's follow-up work
(Zhai et al., *Dynamic Load Balancing for Compressible Multiphase
Turbulence*) corrects it with periodic cost-driven repartitioning.
This package reproduces that subsystem for the mini-app:

- :mod:`repro.lb.cost` — per-rank virtual-time cost monitor, fed by
  the :class:`repro.mpi.clock.VirtualClock`;
- :mod:`repro.lb.sfc` — Morton space-filling-curve element ordering;
- :mod:`repro.lb.assignment` — :class:`ElementAssignment`, an explicit
  element-to-rank overlay compatible with the static brick partition's
  query surface;
- :mod:`repro.lb.partitioner` — weighted contiguous chunking of the
  curve with greedy boundary refinement;
- :mod:`repro.lb.policy` — :class:`RebalancePolicy` (threshold +
  hysteresis, every-K, manual);
- :mod:`repro.lb.migrate` — live element migration over the
  crystal-router transport, charged to virtual time as ``LB_*`` sites;
- :mod:`repro.lb.manager` — :class:`LoadBalancer`, the per-rank driver
  hosts embed between RK steps.
"""

from .assignment import ElementAssignment
from .cost import (
    SITE_LB_MONITOR,
    CostMonitor,
    RankCost,
    capacities_from_costs,
    cost_imbalance,
    gather_costs,
)
from .manager import LoadBalancer, RebalanceEvent
from .migrate import (
    OP_LB_MIGRATE,
    OP_LB_REBUILD,
    SITE_LB_MIGRATE,
    SITE_LB_REBUILD,
    MigrationStats,
    migrate_elements,
)
from .partitioner import chunk_bounds, refine_bounds, sfc_partition
from .policy import MODES, RebalancePolicy
from .sfc import element_ids, id_to_coords, morton_keys, sfc_order

__all__ = [
    "ElementAssignment",
    "CostMonitor",
    "RankCost",
    "LoadBalancer",
    "RebalanceEvent",
    "RebalancePolicy",
    "MigrationStats",
    "MODES",
    "SITE_LB_MONITOR",
    "SITE_LB_MIGRATE",
    "SITE_LB_REBUILD",
    "OP_LB_MIGRATE",
    "OP_LB_REBUILD",
    "capacities_from_costs",
    "cost_imbalance",
    "gather_costs",
    "migrate_elements",
    "chunk_bounds",
    "refine_bounds",
    "sfc_partition",
    "element_ids",
    "id_to_coords",
    "morton_keys",
    "sfc_order",
]
