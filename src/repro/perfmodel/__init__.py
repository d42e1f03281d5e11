"""``repro.perfmodel`` — machine, network, and topology cost models.

These models price every compute region and message in the simulated
runtime, replacing the physical clusters the paper measured on (see
DESIGN.md, substitution table).
"""

from .machine import CpuModel, MachineModel, load_factor
from .network import NetworkModel
from .topology import (
    FatTreeTopology,
    FlatTopology,
    Topology,
    TorusTopology,
)

__all__ = [
    "CpuModel",
    "FatTreeTopology",
    "FlatTopology",
    "MachineModel",
    "NetworkModel",
    "Topology",
    "TorusTopology",
    "load_factor",
]
