"""Shared-memory ring spill-segment hygiene.

A spill segment is only reachable through the ring record that names
it, so every exit path — consumed, dropped, aborted, or orphaned by a
dead writer — must end in an unlink.  These tests assert no segment
with the ring's job-unique prefix survives any of them.
"""

import multiprocessing as mp
import os

import pytest

from repro.mpi.shm import _SHM_DIR, ShmRing

CTX = mp.get_context("fork")

pytestmark = pytest.mark.skipif(
    not os.path.isdir(_SHM_DIR),
    reason="needs file-backed POSIX shared memory",
)


@pytest.fixture
def ring():
    r = ShmRing(CTX, capacity=4096)
    yield r
    r.drain_spills()
    r.sweep_spills()
    r.destroy()


def big_record(ring_obj):
    """A payload over the spill threshold for this ring."""
    return b"x" * (ring_obj.capacity // 2)


class TestSpillHygiene:
    def test_consumed_spill_is_unlinked(self, ring):
        data = big_record(ring)
        assert ring.push(data)
        assert ring.orphaned_spills(), "record should have spilled"
        assert ring.pop(timeout=1.0) == data
        assert ring.orphaned_spills() == []

    def test_cleanup_drops_unread_spills(self, ring):
        assert ring.push(big_record(ring))
        assert ring.push(b"small")
        ring.drain_spills()
        ring.sweep_spills()
        assert ring.orphaned_spills() == []
        assert ring.pop(timeout=0.0) is None
        # and the ring still works afterwards
        assert ring.push(b"after")
        assert ring.pop(timeout=1.0) == b"after"

    def test_nonblocking_pop_and_drain(self, ring):
        assert ring.pop(0) is None and ring.pop(0.0) is None
        assert ring.push(b"inline")
        assert ring.push(big_record(ring))
        assert len(ring.orphaned_spills()) == 1
        ring.drain_spills()
        assert ring.orphaned_spills() == []
        # semaphore back at zero: nothing to take, now or non-blocking
        assert not ring.data_sem.acquire(False)
        assert ring.pop(0) is None
        assert ring._head() == ring._tail()

    def test_dropped_record_unlinks_its_spill(self, ring):
        # Fill the ring to fewer free bytes than even a spill *record*
        # (which only carries the segment name) needs, then give up:
        # the segment made for the dropped record must not leak.
        while True:
            free = ring.capacity - (ring._tail() - ring._head())
            if free < 64:  # less than a spill record's ~45 bytes + pad
                break
            # chunks stay under the spill threshold so they fill the
            # ring inline instead of spilling themselves
            assert ring.push(b"f" * (min(free, 517) - 5))
        assert not ring.push(big_record(ring), give_up=lambda: True)
        assert ring.orphaned_spills() == []

    def test_sweep_reclaims_orphan_from_dead_writer(self, ring):
        from multiprocessing import shared_memory

        # Simulate a writer that died between creating its segment and
        # publishing the ring record.
        name = f"{ring.spill_prefix}_{os.getpid()}_999"
        seg = shared_memory.SharedMemory(name=name, create=True, size=16)
        seg.close()
        assert name in ring.orphaned_spills()
        assert ring.sweep_spills() == 1
        assert ring.orphaned_spills() == []

    def test_prefix_is_job_unique(self, ring):
        other = ShmRing(CTX, capacity=4096)
        try:
            assert other.spill_prefix != ring.spill_prefix
            assert other.push(big_record(other))
            # Sweeping one ring must not touch the other's segments.
            assert ring.sweep_spills() == 0
            assert other.orphaned_spills()
            assert other.pop(timeout=1.0) is not None
        finally:
            other.drain_spills()
            other.sweep_spills()
            other.destroy()
