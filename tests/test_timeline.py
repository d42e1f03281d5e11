"""Gantt bars recorded by the region profiler, and their rendering."""

import pickle

import pytest

from repro.analysis.callgraph import CallGraphProfiler
from repro.analysis.timeline import (
    Interval,
    merge_timelines,
    render_gantt,
)
from repro.core import CMTBone, CMTBoneConfig
from repro.mpi import Runtime
from repro.mpi.clock import VirtualClock


class TestRecorder:
    def test_records_top_level_only(self):
        clock = VirtualClock()
        rec = CallGraphProfiler(clock, 0)
        with rec.phase("outer"):
            clock.advance(1.0)
            with rec.phase("inner"):
                clock.advance(2.0)
        assert len(rec.intervals) == 1
        iv = rec.intervals[0]
        assert iv.name == "outer"
        assert iv.t1 - iv.t0 == pytest.approx(3.0)

    def test_zero_length_dropped(self):
        clock = VirtualClock()
        rec = CallGraphProfiler(clock, 0)
        with rec.phase("noop"):
            pass
        assert rec.intervals == []

    def test_sequential_intervals(self):
        clock = VirtualClock()
        rec = CallGraphProfiler(clock, 1)
        for name in ("a", "b", "a"):
            with rec.phase(name):
                clock.advance(0.5)
        assert [iv.name for iv in rec.intervals] == ["a", "b", "a"]
        assert rec.intervals[2].t0 == pytest.approx(1.0)


class TestMergeAndRender:
    def _sample(self):
        return [
            Interval(0, "compute", 0.0, 3.0),
            Interval(0, "exchange", 3.0, 4.0),
            Interval(1, "compute", 0.0, 2.0),
            Interval(1, "exchange", 2.0, 2.5),
            # rank 1 idle 2.5..4.0 (waiting)
        ]

    def test_merge_ordering(self):
        clocks = [VirtualClock(), VirtualClock()]
        recs = [CallGraphProfiler(clocks[r], r) for r in range(2)]
        with recs[1].phase("x"):
            clocks[1].advance(1.0)
        with recs[0].phase("y"):
            clocks[0].advance(0.5)
        merged = merge_timelines([rec.intervals for rec in recs])
        assert [iv.rank for iv in merged] == [0, 1]

    def test_gantt_structure(self):
        text = render_gantt(self._sample(), width=40)
        lines = text.splitlines()
        assert lines[1].startswith("rank    0 |")
        assert lines[2].startswith("rank    1 |")
        assert "a=compute" in lines[-1]
        assert "b=exchange" in lines[-1]
        # rank 1's tail is idle dots.
        assert lines[2].rstrip("|").endswith(".")

    def test_gantt_dominant_symbol_per_bin(self):
        text = render_gantt(self._sample(), width=4)
        row0 = text.splitlines()[1]
        cells = row0.split("|")[1]
        assert cells == "aaab"

    def test_empty(self):
        assert "empty" in render_gantt([])


class TestEndToEnd:
    def test_wait_shows_as_idle(self):
        """A rank blocked on a late sender shows an idle gap."""

        def main(comm):
            rec = CallGraphProfiler(comm.clock, comm.rank)
            if comm.rank == 0:
                with rec.phase("compute"):
                    comm.compute(seconds=1.0)
                comm.send(1, dest=1)
            else:
                with rec.phase("recv"):
                    comm.recv(source=0)
            return rec.intervals

        res = Runtime(nranks=2).run(main)
        recv_iv = res[1][0]
        # The receive on rank 1 spans the sender's whole compute time.
        assert recv_iv.t1 - recv_iv.t0 > 0.9

    def test_bars_stay_out_of_pickled_results(self):
        """A result rides in every process rank's exit record and service
        reply: its profiler keeps the bars on the rank, not in the
        record (docs/backends.md)."""

        def main(comm):
            app = CMTBone(comm, CMTBoneConfig(
                n=5, local_shape=(2, 2, 2), nsteps=4, work_mode="proxy",
            ))
            result = app.run()
            return app.profiler.intervals, pickle.loads(pickle.dumps(result))

        for intervals, shipped in Runtime(nranks=2).run(main):
            assert len(intervals) >= 4 * 3 * 4
            assert shipped.profiler.intervals == []
            assert shipped.profiler.stats["ax_"].calls == 4 * 3
