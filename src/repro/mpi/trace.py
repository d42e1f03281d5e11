"""Message tracing: the traffic a network model is priced against.

Section VI: "To perform network simulations we also need appropriate
latency and bandwidth models for the machines and data transfer
characteristics for the application".  With
``Runtime(trace_messages=True)`` every point-to-point message is
recorded as a :class:`TraceEvent`; :class:`MessageTrace` merges the
per-rank streams for :func:`repro.analysis.traffic.hop_weighted_bytes`
and the topology ablation.
"""

from __future__ import annotations

from typing import List, NamedTuple


class TraceEvent(NamedTuple):
    """One message on the wire."""

    seq: int
    src: int
    dst: int
    cid: int
    tag: int
    nbytes: int
    wire_vtime: float


class MessageTrace:
    """Per-rank event lists, merged and queried after the run.

    Each simulated rank appends only from its own thread, so recording
    is lock-free; :meth:`events` merges in virtual-time order.
    """

    def __init__(self, nranks: int):
        self.nranks = nranks
        self._per_rank: List[List[TraceEvent]] = [[] for _ in range(nranks)]

    def record(
        self,
        src: int,
        dst: int,
        cid: int,
        tag: int,
        nbytes: int,
        wire_vtime: float,
        seq: int,
    ) -> None:
        self._per_rank[src].append(
            TraceEvent(
                seq=seq, src=src, dst=dst, cid=cid, tag=tag,
                nbytes=nbytes, wire_vtime=wire_vtime,
            )
        )

    def events(self) -> List[TraceEvent]:
        """All events, sorted by (virtual time, src, seq)."""
        merged = [e for lst in self._per_rank for e in lst]
        merged.sort(key=lambda e: (e.wire_vtime, e.src, e.seq))
        return merged

    def rank_events(self, rank: int) -> List[TraceEvent]:
        """Events sent by one rank, in program order."""
        return list(self._per_rank[rank])

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for lst in self._per_rank for e in lst)
