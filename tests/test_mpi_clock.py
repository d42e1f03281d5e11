"""Unit tests for the per-rank virtual clocks."""

import pytest

from repro.mpi.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        c = VirtualClock()
        assert c.now == 0.0
        assert c.compute_time == 0.0
        assert c.comm_time == 0.0

    def test_advance_compute(self):
        c = VirtualClock()
        c.advance(1.5)
        assert c.now == 1.5
        assert c.compute_time == 1.5
        assert c.comm_time == 0.0

    def test_advance_comm(self):
        c = VirtualClock()
        c.advance(0.25, kind="comm")
        assert c.now == 0.25
        assert c.comm_time == 0.25
        assert c.compute_time == 0.0

    def test_advance_accumulates(self):
        c = VirtualClock()
        c.advance(1.0)
        c.advance(2.0, kind="comm")
        c.advance(0.5)
        assert c.now == pytest.approx(3.5)
        assert c.compute_time == pytest.approx(1.5)
        assert c.comm_time == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        c = VirtualClock()
        with pytest.raises(ValueError):
            c.advance(-0.1)

    def test_unknown_kind_rejected(self):
        c = VirtualClock()
        with pytest.raises(ValueError):
            c.advance(1.0, kind="io")

    def test_synchronize_forward(self):
        c = VirtualClock()
        c.advance(1.0)
        waited = c.synchronize(3.0)
        assert waited == pytest.approx(2.0)
        assert c.now == pytest.approx(3.0)
        assert c.comm_time == pytest.approx(2.0)

    def test_synchronize_to_past_is_noop(self):
        c = VirtualClock()
        c.advance(5.0)
        waited = c.synchronize(2.0)
        assert waited == 0.0
        assert c.now == 5.0

    def test_overlap_fully_hidden(self):
        c = VirtualClock()
        window = c.overlap_interval()
        c.advance(5.0)  # compute outlasts the 2 s exchange
        assert c.close_overlap(window, completion=2.0) == 2.0
        assert c.hidden_comm_time == 2.0
        assert c.now == 5.0

    def test_overlap_partly_exposed(self):
        c = VirtualClock()
        c.advance(1.0)
        window = c.overlap_interval()
        c.advance(2.0)
        # Exchange completes at t=6: 5 s blocking, 3 s left exposed.
        assert c.close_overlap(window, completion=6.0) == pytest.approx(2.0)
        assert c.now == 3.0  # the exposed part is charged by the wait

    def test_overlap_wait_start_bounds_hiding(self):
        c = VirtualClock()
        window = c.overlap_interval()
        c.advance(4.0)
        hidden = c.close_overlap(window, completion=3.0, wait_start=1.0)
        assert hidden == pytest.approx(1.0)
        assert c.hidden_comm_time == pytest.approx(1.0)
