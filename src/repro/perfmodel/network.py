"""LogGP-style network cost model.

Message timing in the simulated runtime decomposes, as in the LogGP
family of models, into:

* ``send_overhead`` — CPU time the sender burns to inject a message
  (the *o* parameter, plus a per-byte injection gap ``G_inj`` for
  buffer copies),
* ``transit`` — wire time from injection to arrival:
  ``L_base + L_hop * hops(src, dst) + nbytes * G`` where ``G`` is the
  inverse bandwidth, and
* ``recv_overhead`` — CPU time the receiver burns to drain the message.

Same-node transfers (when the topology can tell) use a cheaper
shared-memory latency/bandwidth pair.  Parameters for the machines the
paper used are in :mod:`repro.perfmodel.machine` presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import FatTreeTopology, FlatTopology, Topology


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth/overhead model over a :class:`Topology`.

    All times are seconds; bandwidths are bytes/second.
    """

    #: Base wire latency for any off-rank message.
    latency: float = 1.3e-6
    #: Additional latency per network hop beyond the first.
    hop_latency: float = 0.2e-6
    #: Link bandwidth (bytes/s) for inter-node messages.
    bandwidth: float = 3.2e9
    #: Sender CPU overhead per message.
    o_send: float = 0.4e-6
    #: Receiver CPU overhead per message.
    o_recv: float = 0.4e-6
    #: Per-byte injection cost on the sender (buffer copy / DMA setup).
    g_inject: float = 0.0
    #: Latency for same-node (shared-memory) transfers.
    shm_latency: float = 0.3e-6
    #: Bandwidth for same-node transfers.
    shm_bandwidth: float = 8.0e9
    #: Hop-count model.
    topology: Topology = field(default_factory=FlatTopology)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.shm_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        for name in ("latency", "hop_latency", "o_send", "o_recv",
                     "g_inject", "shm_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # -- cost components -------------------------------------------------

    def send_overhead(self, nbytes: int) -> float:
        """Sender CPU seconds charged when a message is posted."""
        return self.o_send + nbytes * self.g_inject

    def recv_overhead(self, nbytes: int) -> float:
        """Receiver CPU seconds charged when a message is drained."""
        return self.o_recv

    def _same_node(self, src: int, dst: int) -> bool:
        if src == dst:
            return True
        topo = self.topology
        if isinstance(topo, FatTreeTopology):
            return topo.same_node(src, dst)
        return False

    def transit(self, src: int, dst: int, nbytes: int) -> float:
        """Wire seconds from injection to arrival at the receiver."""
        if self._same_node(src, dst):
            return self.shm_latency + nbytes / self.shm_bandwidth
        hops = self.topology.hops(src, dst)
        lat = self.latency + self.hop_latency * max(0, hops - 1)
        return lat + nbytes / self.bandwidth

    # -- batched (vectorized) variants ------------------------------------
    #
    # These evaluate the scalar formulas elementwise over numpy arrays.
    # Each expression is written with the exact operation order of its
    # scalar twin so the results are bit-identical — the virtual
    # scale-out engine (`repro.vscale`) relies on that to reproduce the
    # executed runtime's clock arithmetic in bulk.

    def send_overhead_batch(self, nbytes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`send_overhead` over a byte-count array."""
        nbytes = np.asarray(nbytes, dtype=np.float64)
        return self.o_send + nbytes * self.g_inject

    def _same_node_batch(
        self, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        same = src == dst
        topo = self.topology
        if isinstance(topo, FatTreeTopology):
            same = same | topo.same_node_batch(src, dst)
        return same

    def transit_batch(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`transit` over aligned rank/byte arrays."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.float64)
        shm = self.shm_latency + nbytes / self.shm_bandwidth
        hops = self.topology.hops_batch(src, dst)
        lat = self.latency + self.hop_latency * np.maximum(0, hops - 1)
        net = lat + nbytes / self.bandwidth
        return np.where(self._same_node_batch(src, dst), shm, net)

    def describe(self) -> str:
        """Human-readable one-line parameter summary."""
        return (
            f"lat={self.latency * 1e6:.2f}us hop={self.hop_latency * 1e6:.2f}us "
            f"bw={self.bandwidth / 1e9:.1f}GB/s o_s={self.o_send * 1e6:.2f}us "
            f"o_r={self.o_recv * 1e6:.2f}us topo={type(self.topology).__name__}"
        )
