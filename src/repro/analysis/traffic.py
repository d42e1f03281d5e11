"""Traffic analysis of message traces (network-model calibration).

The paper's network-modelling effort needs "data transfer
characteristics for the application" (Section VI).  Given a
:class:`repro.mpi.trace.MessageTrace` and a network topology, this
module prices the recorded traffic as hop-weighted bytes, the
network-load figure of merit the topology ablation compares.
"""

from __future__ import annotations

from ..mpi.trace import MessageTrace


def hop_weighted_bytes(trace: MessageTrace, topology) -> float:
    """Total bytes x hops — the network-load figure of merit."""
    total = 0.0
    for e in trace.events():
        total += e.nbytes * topology.hops(e.src, e.dst)
    return total
