"""Timeline recording and text Gantt rendering."""

import pytest

from repro.analysis.timeline import (
    Interval,
    TimelineRecorder,
    merge_timelines,
    render_gantt,
)
from repro.mpi import Runtime
from repro.mpi.clock import VirtualClock


class TestRecorder:
    def test_records_top_level_only(self):
        clock = VirtualClock()
        rec = TimelineRecorder(0, clock)
        with rec.region("outer"):
            clock.advance(1.0)
            with rec.region("inner"):
                clock.advance(2.0)
        assert len(rec.intervals) == 1
        iv = rec.intervals[0]
        assert iv.name == "outer"
        assert iv.t1 - iv.t0 == pytest.approx(3.0)

    def test_zero_length_dropped(self):
        clock = VirtualClock()
        rec = TimelineRecorder(0, clock)
        with rec.region("noop"):
            pass
        assert rec.intervals == []

    def test_sequential_intervals(self):
        clock = VirtualClock()
        rec = TimelineRecorder(1, clock)
        for name in ("a", "b", "a"):
            with rec.region(name):
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
        recs = [TimelineRecorder(r, clocks[r]) for r in range(2)]
        with recs[1].region("x"):
            clocks[1].advance(1.0)
        with recs[0].region("y"):
            clocks[0].advance(0.5)
        merged = merge_timelines(recs)
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
            rec = TimelineRecorder(comm.rank, comm.clock)
            if comm.rank == 0:
                with rec.region("compute"):
                    comm.compute(seconds=1.0)
                comm.send(1, dest=1)
            else:
                with rec.region("recv"):
                    comm.recv(source=0)
            return rec.intervals

        res = Runtime(nranks=2).run(main)
        recv_iv = res[1][0]
        # The receive on rank 1 spans the sender's whole compute time.
        assert recv_iv.t1 - recv_iv.t0 > 0.9
