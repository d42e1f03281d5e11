"""Report generation: call-graph profiler, tables, mpiP views."""

import pytest

from repro.analysis import (
    CallGraphProfiler,
    call_graph,
    flat_profile,
    merge_profiles,
    mpi_fraction_report,
    message_size_report,
    render_histogram,
    render_table,
    summarize_fractions,
    top_calls_report,
)
from repro.mpi import Runtime
from repro.mpi.clock import VirtualClock


class TestCallGraphProfiler:
    def test_nested_regions_self_time(self):
        clock = VirtualClock()
        prof = CallGraphProfiler(clock, 0)
        with prof.region("outer"):
            clock.advance(1.0)
            with prof.region("inner"):
                clock.advance(3.0)
            clock.advance(0.5)
        outer = prof.stats["outer"]
        inner = prof.stats["inner"]
        assert outer.total == pytest.approx(4.5)
        assert outer.self_time == pytest.approx(1.5)
        assert inner.total == pytest.approx(3.0)
        assert inner.self_time == pytest.approx(3.0)

    def test_edges_recorded(self):
        clock = VirtualClock()
        prof = CallGraphProfiler(clock, 0)
        with prof.region("a"):
            for _ in range(3):
                with prof.region("b"):
                    clock.advance(1.0)
        assert prof.edges[("a", "b")] == (3, pytest.approx(3.0))

    def test_exception_safe(self):
        clock = VirtualClock()
        prof = CallGraphProfiler(clock, 0)
        with pytest.raises(RuntimeError):
            with prof.region("x"):
                clock.advance(1.0)
                raise RuntimeError()
        assert prof.stats["x"].calls == 1
        assert prof.stats["x"].total == pytest.approx(1.0)

    def test_merge_profiles(self):
        profs = []
        for _ in range(2):
            clock = VirtualClock()
            p = CallGraphProfiler(clock, 0)
            with p.region("k"):
                clock.advance(2.0)
            profs.append(p)
        merged = merge_profiles(profs)
        assert merged["k"].calls == 2
        assert merged["k"].total == pytest.approx(4.0)

    def test_flat_profile_sorted_and_percented(self):
        clock = VirtualClock()
        prof = CallGraphProfiler(clock, 0)
        with prof.region("big"):
            clock.advance(9.0)
        with prof.region("small"):
            clock.advance(1.0)
        text = flat_profile(prof.stats)
        lines = text.splitlines()
        assert "name" in lines[0]
        assert "big" in lines[1]
        assert "90.00" in lines[1]

    def test_call_graph_render(self):
        clock = VirtualClock()
        prof = CallGraphProfiler(clock, 0)
        with prof.region("rhs"):
            with prof.region("ax_"):
                clock.advance(1.0)
        text = call_graph([prof])
        assert "rhs" in text
        assert "-> ax_" in text


class TestTables:
    def test_render_table_aligned(self):
        text = render_table(["a", "bbb"], [(1, 2.5), (10, 0.125)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bbb" in lines[0]

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [(1, 2)])

    def test_histogram(self):
        text = render_histogram(["x", "y"], [1.0, 2.0])
        lines = text.splitlines()
        assert lines[1].count("#") > lines[0].count("#")

    def test_histogram_mismatch(self):
        with pytest.raises(ValueError):
            render_histogram(["x"], [1.0, 2.0])

    def test_histogram_zero_values(self):
        text = render_histogram(["x"], [0.0])
        assert "x" in text


class TestMpipReports:
    def _profile(self):
        def main(comm):
            other = 1 - comm.rank
            req = comm.irecv(source=other, site="exchange")
            comm.isend(bytes(1000), dest=other, site="exchange")
            req.wait(site="exchange")
            comm.compute(seconds=1e-3)
            comm.allreduce(1.0, site="residual")

        rt = Runtime(nranks=2)
        rt.run(main)
        return rt.job_profile()

    def test_fraction_report(self):
        text = mpi_fraction_report(self._profile())
        assert "% time spent in MPI" in text
        assert "rank    0" in text
        assert "imbalance" in text

    def test_summary_values(self):
        mean, mn, mx, imb = summarize_fractions(self._profile())
        assert 0 < mn <= mean <= mx < 100
        assert imb >= 1.0

    def test_top_calls_report(self):
        text = top_calls_report(self._profile(), 5)
        assert "most expensive MPI calls" in text
        assert "MPI_" in text

    def test_message_size_report(self):
        text = message_size_report(self._profile())
        assert "avg bytes" in text
        assert "1000" in text
