"""Machine (node + network) models and presets for the paper's systems.

The compute side is a two-parameter roofline: a kernel that executes
``flops`` floating-point operations while moving ``mem_bytes`` to/from
memory takes::

    max(flops / (peak_flops * efficiency), mem_bytes / mem_bandwidth)

seconds.  ``efficiency`` is supplied per kernel *variant* (the paper's
loop-fusion study is exactly a study of how much of peak a variant
reaches), the rest are machine constants.

Presets model the three platforms named in the paper:

* ``"compton"`` — the Sandia ASC testbed used for Fig. 7: 42 nodes of
  dual 8-core Sandy Bridge Xeon E5-2670 (2.6 GHz) with Mellanox
  Infiniscale IV QDR Infiniband.
* ``"opteron6378"`` — the AMD Opteron 6378 (2.4 GHz) node used for the
  derivative-kernel PAPI study (Figs. 5-6).
* ``"i5-2500"`` — the 4-core 3.3 GHz desktop used for the gprof profile
  (Fig. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .network import NetworkModel
from .topology import FatTreeTopology, FlatTopology


@dataclass(frozen=True)
class CpuModel:
    """Single-core compute roofline parameters."""

    #: Core clock in Hz.
    ghz: float = 2.6e9
    #: Peak double-precision flops/cycle/core (SIMD width x FMA).
    flops_per_cycle: float = 8.0
    #: Achievable memory bandwidth per core, bytes/s.
    mem_bandwidth: float = 8.0e9
    #: L1 data cache size in bytes (used by the cache-miss estimator).
    l1_dcache: int = 32 * 1024

    def __post_init__(self) -> None:
        if self.ghz <= 0 or self.flops_per_cycle <= 0:
            raise ValueError("cpu rates must be positive")
        if self.mem_bandwidth <= 0:
            raise ValueError("mem_bandwidth must be positive")

    @property
    def peak_flops(self) -> float:
        """Peak flops/s for one core."""
        return self.ghz * self.flops_per_cycle


@dataclass(frozen=True)
class MachineModel:
    """A named machine: CPU roofline + network model."""

    name: str = "generic"
    cpu: CpuModel = field(default_factory=CpuModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    #: Fixed per-rank cost of opening/committing one checkpoint file
    #: (parallel-filesystem metadata + fsync), virtual seconds.
    io_latency: float = 5.0e-4
    #: Sustained per-rank checkpoint I/O bandwidth, bytes/s.
    io_bandwidth: float = 2.0e9
    #: Fixed cost of relaunching the job after a crash (scheduler +
    #: startup), charged once per recovery restart, virtual seconds.
    restart_latency: float = 0.5

    # -- compute pricing -------------------------------------------------

    def compute_seconds(
        self,
        flops: float = 0.0,
        mem_bytes: float = 0.0,
        efficiency: float = 1.0,
    ) -> float:
        """Roofline time for a kernel: compute-bound vs memory-bound."""
        if not (0.0 < efficiency <= 1.0):
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        t_flops = flops / (self.cpu.peak_flops * efficiency)
        t_mem = mem_bytes / self.cpu.mem_bandwidth
        return max(t_flops, t_mem)

    def with_network(self, network: NetworkModel) -> "MachineModel":
        """Copy of this machine with a different network model."""
        return replace(self, network=network)

    # -- checkpoint / resilience pricing ---------------------------------

    def checkpoint_seconds(self, nbytes: float) -> float:
        """Virtual seconds for one rank to write ``nbytes`` of state."""
        if nbytes < 0:
            raise ValueError(f"negative checkpoint size: {nbytes}")
        return self.io_latency + nbytes / self.io_bandwidth

    @staticmethod
    def young_daly_interval(
        checkpoint_seconds: float, mtbf_seconds: float
    ) -> float:
        """Young/Daly first-order optimal checkpoint interval.

        For checkpoint cost ``C`` and per-job mean time between
        failures ``M``, the compute time between checkpoints that
        minimizes expected total runtime is approximately::

            tau_opt = sqrt(2 * C * M) - C        (Young 1974, Daly 2006)

        Clamped below at ``C`` — checkpointing more often than the
        checkpoint itself takes can never win.  Validated empirically
        by ``benchmarks/bench_fault_ablation.py``.
        """
        if checkpoint_seconds <= 0 or mtbf_seconds <= 0:
            raise ValueError("checkpoint cost and MTBF must be positive")
        tau = math.sqrt(2.0 * checkpoint_seconds * mtbf_seconds)
        return max(tau - checkpoint_seconds, checkpoint_seconds)

    # -- overlap pricing -------------------------------------------------

    @staticmethod
    def exposed_comm_seconds(
        comm_seconds: float, overlap_compute_seconds: float
    ) -> float:
        """Communication left *exposed* after overlapping with compute.

        A split-phase exchange of duration ``comm_seconds`` posted
        before ``overlap_compute_seconds`` of independent compute costs
        only ``max(comm - compute, 0)`` of extra wall time; the rest is
        hidden under the compute.  This is the analytic counterpart of
        what the virtual clock measures per message (see
        ``VirtualClock.close_overlap``).
        """
        return max(comm_seconds - overlap_compute_seconds, 0.0)

    @staticmethod
    def overlapped_interval_seconds(
        compute_seconds: float, comm_seconds: float
    ) -> float:
        """Duration of one overlapped interval: compute + exposed comm.

        Equals ``max(compute, comm)`` — the classic overlap bound —
        rather than the blocking schedule's ``compute + comm``.
        """
        return compute_seconds + MachineModel.exposed_comm_seconds(
            comm_seconds, compute_seconds
        )

    # -- presets -----------------------------------------------------------

    @staticmethod
    def default() -> "MachineModel":
        return MachineModel.preset("compton")

    @staticmethod
    def preset(name: str) -> "MachineModel":
        """Build one of the named machine presets (see module docs)."""
        key = name.lower().replace("_", "-")
        try:
            return _PRESETS[key]()
        except KeyError:
            raise ValueError(
                f"unknown machine preset {name!r}; "
                f"available: {sorted(_PRESETS)}"
            ) from None

    @staticmethod
    def available_presets() -> list:
        return sorted(_PRESETS)


def load_factor(rank, imbalance: float):
    """Deterministic compute heterogeneity: ``1 + imbalance * h(rank)``,
    ``h`` a multiplicative hash of the rank into [0, 1).  ``rank`` is an
    int or an integer array (vscale passes every rank at once)."""
    return 1.0 + imbalance * ((rank * 2654435761) % (2**32) / 2**32)


def _compton() -> MachineModel:
    """Sandia Compton: 2x E5-2670 / node, Mellanox QDR IB."""
    return MachineModel(
        name="compton",
        cpu=CpuModel(
            ghz=2.6e9,
            flops_per_cycle=8.0,  # AVX: 4 dp lanes x (add+mul)
            mem_bandwidth=6.4e9,  # ~51 GB/s per socket / 8 cores
            l1_dcache=32 * 1024,
        ),
        network=NetworkModel(
            latency=1.3e-6,  # QDR IB MPI latency
            hop_latency=0.1e-6,
            bandwidth=3.2e9,  # ~32 Gb/s effective
            # Per-message CPU overhead: MPI stack + gs-library
            # per-message bookkeeping (2015-era).  Calibrated so the
            # Fig. 7 magnitudes land near the paper's measurements.
            o_send=2.5e-6,
            o_recv=2.5e-6,
            g_inject=1.0e-11,
            shm_latency=0.3e-6,
            shm_bandwidth=8.0e9,
            topology=FatTreeTopology(ranks_per_node=16, nodes_per_switch=18),
        ),
    )


def _opteron6378() -> MachineModel:
    """AMD Opteron 6378 "Piledriver", 2.4 GHz, 48 KB L1d (Figs. 5-6)."""
    return MachineModel(
        name="opteron6378",
        cpu=CpuModel(
            ghz=2.4e9,
            flops_per_cycle=8.0,  # shared FMA pipe per module
            mem_bandwidth=5.0e9,
            l1_dcache=48 * 1024,  # 48 KB L1d, as stated in the paper
        ),
        network=NetworkModel(topology=FlatTopology()),
    )


def _i5_2500() -> MachineModel:
    """Intel i5-2500 desktop, 3.3 GHz (Fig. 4's gprof host)."""
    return MachineModel(
        name="i5-2500",
        cpu=CpuModel(
            ghz=3.3e9,
            flops_per_cycle=8.0,
            mem_bandwidth=5.0e9,
            l1_dcache=32 * 1024,
        ),
        network=NetworkModel(
            # All 8 MPI processes share one desktop: shared-memory only.
            latency=0.5e-6,
            bandwidth=6.0e9,
            shm_latency=0.3e-6,
            shm_bandwidth=6.0e9,
            o_send=0.3e-6,
            o_recv=0.3e-6,
            topology=FatTreeTopology(ranks_per_node=8, nodes_per_switch=1),
        ),
    )


def _generic() -> MachineModel:
    return MachineModel(name="generic")


_PRESETS = {
    "compton": _compton,
    "opteron6378": _opteron6378,
    "i5-2500": _i5_2500,
    "generic": _generic,
}
