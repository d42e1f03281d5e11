"""Message tracing and traffic analysis."""

import numpy as np

from repro.analysis.traffic import hop_weighted_bytes
from repro.core import CMTBoneConfig, run_cmtbone
from repro.mpi import Runtime
from repro.mpi.trace import MessageTrace
from repro.perfmodel import FatTreeTopology, FlatTopology, TorusTopology


def traced_run(nranks=4):
    cfg = CMTBoneConfig(
        n=5, local_shape=(2, 1, 1), proc_shape=(2, 2, 1), nsteps=2,
        work_mode="proxy", gs_method="pairwise",
    )
    rt = Runtime(nranks=nranks, trace_messages=True)
    rt.run(run_cmtbone, args=(cfg,))
    return rt


class TestTraceCollection:
    def test_disabled_by_default(self):
        rt = Runtime(nranks=2)
        rt.run(lambda comm: comm.allreduce(1))
        assert rt.trace is None

    def test_events_collected_and_ordered(self):
        rt = traced_run()
        trace = rt.trace
        events = trace.events()
        assert len(events) > 0
        times = [e.wire_vtime for e in events]
        assert times == sorted(times)

    def test_trace_bytes_match_profile(self):
        """Trace totals agree with the mpiP profile's byte counts."""
        rt = traced_run()
        sent_in_profile = sum(
            r.bytes_total for r in rt.job_profile().aggregates()
            if r.op in ("MPI_Send", "MPI_Isend")
        )
        # Trace sees *all* messages incl. collective internals, so it
        # is a superset of the profiled p2p bytes.
        assert rt.trace.total_bytes >= sent_in_profile

    def test_rank_events_program_order(self):
        rt = traced_run()
        for r in range(4):
            evs = rt.trace.rank_events(r)
            seqs = [e.seq for e in evs]
            assert seqs == sorted(seqs)


class TestTrafficAnalysis:
    def _synthetic(self):
        trace = MessageTrace(4)
        data = [
            (0, 1, 100), (0, 1, 100), (1, 0, 50),
            (2, 3, 4000), (3, 2, 4000), (0, 3, 8),
        ]
        for i, (s, d, b) in enumerate(data):
            trace.record(src=s, dst=d, cid=1, tag=0, nbytes=b,
                         wire_vtime=i * 1e-6, seq=i)
        return trace

    def test_hop_weighted_bytes_flat(self):
        hwb = hop_weighted_bytes(self._synthetic(), FlatTopology())
        assert hwb == 8258  # all pairs one hop

    def test_hop_weighted_bytes_torus(self):
        hwb = hop_weighted_bytes(
            self._synthetic(), TorusTopology(shape=(8, 1, 1))
        )
        # 0->3 is three hops on the 8-ring; every other pair is adjacent.
        assert hwb == 8258 + 2 * 8

    def test_hop_weighted_bytes_fat_tree(self):
        topo = FatTreeTopology(ranks_per_node=2, nodes_per_switch=1)
        hwb = hop_weighted_bytes(self._synthetic(), topo)
        # 0<->1 and 2<->3 share a node (1 hop); 0->3 crosses the core (4).
        assert hwb == 8258 + 3 * 8

    def test_hop_weighted_bytes_empty_trace(self):
        assert hop_weighted_bytes(MessageTrace(2), FlatTopology()) == 0.0

    def test_self_messages_cost_no_hops(self):
        trace = MessageTrace(2)
        trace.record(src=1, dst=1, cid=1, tag=0, nbytes=64,
                     wire_vtime=0.0, seq=0)
        assert hop_weighted_bytes(trace, TorusTopology(shape=(2, 1, 1))) == 0


class TestCmtboneTrafficShape:
    def test_face_exchange_dominates_and_degree_is_six(self):
        """At 8 ranks on a 2x2x2 grid every rank talks to few peers,
        and the heaviest pairs carry the face-exchange N^2 messages."""
        cfg = CMTBoneConfig(
            n=6, local_shape=(2, 2, 2), proc_shape=(2, 2, 2), nsteps=3,
            work_mode="proxy", gs_method="pairwise", monitor_every=0,
        )
        rt = Runtime(nranks=8, trace_messages=True)
        rt.run(run_cmtbone, args=(cfg,))
        bytes_m = np.zeros((8, 8))
        for e in rt.trace.events():
            bytes_m[e.src, e.dst] += e.nbytes
        # Face neighbours on the 2x2x2 periodic grid: 3 distinct peers.
        heavy = bytes_m > bytes_m.max() * 0.5
        assert heavy.sum(axis=1).max() <= 6
        assert heavy.sum(axis=1).min() >= 3
