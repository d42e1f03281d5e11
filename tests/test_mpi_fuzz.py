"""Property-based fuzzing of the MPI substrate.

Random traffic matrices — delivery must always be exact, complete,
FIFO per channel, and deadlock-free, and virtual time must be
deterministic across repeat runs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpi import Runtime, waitall


def random_plan(seed, nranks, max_msgs=4):
    """A reproducible traffic plan: list of (src, dst, tag, length, id)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, max_msgs * nranks + 1))
    plan = []
    for k in range(n):
        plan.append((
            int(rng.integers(0, nranks)),
            int(rng.integers(0, nranks)),
            int(rng.integers(0, 3)),
            int(rng.integers(1, 64)),
            k,
        ))
    return plan


def run_plan(plan, nranks):
    """Execute a plan: each rank posts its receives, sends, waits."""

    def main(comm):
        me = comm.rank
        my_recvs = [
            (src, tag, length, k)
            for (src, dst, tag, length, k) in plan
            if dst == me
        ]
        my_sends = [
            (dst, tag, length, k)
            for (src, dst, tag, length, k) in plan
            if src == me
        ]
        reqs = [
            comm.irecv(source=src, tag=tag)
            for (src, tag, _l, _k) in my_recvs
        ]
        for dst, tag, length, k in my_sends:
            comm.isend(np.full(length, float(k)), dest=dst, tag=tag)
        got = waitall(reqs)
        comm.barrier()
        return my_recvs, got, comm.clock.now

    return Runtime(nranks=nranks).run(main)


class TestTrafficFuzz:
    @given(st.integers(0, 100_000), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_multiset_and_fifo(self, seed, nranks):
        """Every planned message arrives exactly once, with correct
        contents, and per-(src, tag) channels preserve send order."""
        plan = random_plan(seed, nranks)
        res = run_plan(plan, nranks)
        for me, (my_recvs, got, _t) in enumerate(res):
            got_ids = sorted(int(p[0]) for p in got)
            want_ids = sorted(
                k for (_s, d, _t2, _l, k) in plan if d == me
            )
            assert got_ids == want_ids
            # Payload lengths match the plan entry they claim to be.
            for payload in got:
                k = int(payload[0])
                length = next(l for (_s, _d, _t2, l, kk) in plan
                              if kk == k)
                assert len(payload) == length
                assert np.all(payload == float(k))
            # FIFO per (src, tag) channel.
            chan_seen = {}
            for (src, tag, _l, _k), payload in zip(my_recvs, got):
                chan_seen.setdefault((src, tag), []).append(
                    int(payload[0])
                )
            for (src, tag), ids in chan_seen.items():
                expect = [
                    k for (s, d, t, _l, k) in plan
                    if s == src and d == me and t == tag
                ]
                assert ids == expect

    @given(st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None)
    def test_virtual_time_deterministic(self, seed):
        plan = random_plan(seed, 3)
        t1 = [t for _r, _g, t in run_plan(plan, 3)]
        t2 = [t for _r, _g, t in run_plan(plan, 3)]
        assert t1 == t2

    @given(st.integers(0, 10_000), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_random_collective_mix(self, seed, nranks):
        """Interleave a plan with collectives; nothing cross-matches."""
        plan = random_plan(seed, nranks, max_msgs=2)

        def main(comm):
            me = comm.rank
            reqs = [
                comm.irecv(source=src, tag=tag)
                for (src, dst, tag, _l, _k) in plan
                if dst == me
            ]
            total = comm.allreduce(me)
            for (src, dst, tag, length, k) in plan:
                if src == me:
                    comm.isend(np.full(length, float(k)), dest=dst,
                               tag=tag)
            gathered = comm.allgather(me)
            got = waitall(reqs)
            comm.barrier()
            return total, gathered, sorted(int(p[0]) for p in got)

        res = Runtime(nranks=nranks).run(main)
        expect_total = sum(range(nranks))
        for me, (total, gathered, ids) in enumerate(res):
            assert total == expect_total
            assert gathered == list(range(nranks))
            assert ids == sorted(
                k for (_s, d, _t, _l, k) in plan if d == me
            )
