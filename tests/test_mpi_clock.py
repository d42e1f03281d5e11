"""Unit tests for the per-rank virtual clocks."""

import pytest

from repro.mpi.clock import ClockStats, VirtualClock


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


class TestClockStats:
    def test_comm_fraction(self):
        s = ClockStats(rank=0, total=10.0, compute=7.0, comm=3.0)
        assert s.comm_fraction == pytest.approx(0.3)

    def test_comm_fraction_zero_total(self):
        s = ClockStats(rank=0, total=0.0, compute=0.0, comm=0.0)
        assert s.comm_fraction == 0.0
