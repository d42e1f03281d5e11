"""Point-to-point semantics of the simulated MPI."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Runtime, waitall


def run(nranks, fn, **kw):
    return Runtime(nranks=nranks, **kw).run(fn)


class TestBlockingSendRecv:
    def test_simple_pair(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(5.0), dest=1, tag=3)
                return None
            return comm.recv(source=0, tag=3)

        res = run(2, main)
        np.testing.assert_array_equal(res[1], np.arange(5.0))

    def test_send_buffer_reuse_safe(self):
        """MPI semantics: sender may overwrite its buffer after send."""

        def main(comm):
            if comm.rank == 0:
                buf = np.zeros(4)
                comm.send(buf, dest=1)
                buf[:] = 99.0
                return None
            return comm.recv(source=0)

        res = run(2, main)
        np.testing.assert_array_equal(res[1], np.zeros(4))

    def test_python_object_payload(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": (1, 2)}, dest=1, tag=1)
                return None
            return comm.recv(source=0, tag=1)

        assert run(2, main)[1] == {"a": 7, "b": (1, 2)}

    def test_tag_selectivity(self):
        """A receive with tag T skips messages with other tags."""

        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=10)
                comm.send("second", dest=1, tag=20)
                return None
            second = comm.recv(source=0, tag=20)
            first = comm.recv(source=0, tag=10)
            return first, second

        assert run(2, main)[1] == ("first", "second")

    def test_nonovertaking_same_tag(self):
        """Messages on one (src, dst, tag) channel arrive in send order."""

        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, dest=1, tag=5)
                return None
            return [comm.recv(source=0, tag=5) for _ in range(10)]

        assert run(2, main)[1] == list(range(10))

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank == 0:
                got = comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                return got
            comm.send(f"hello from {comm.rank}", dest=0, tag=comm.rank)
            return None

        assert run(2, main)[0] == "hello from 1"

    def test_recv_returns_status(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(16), dest=1, tag=9)
                return None
            payload, status = comm.recv(source=0, tag=9, return_status=True)
            return status.source, status.tag, status.nbytes

        assert run(2, main)[1] == (0, 9, 128)

    def test_self_send(self):
        def main(comm):
            req = comm.irecv(source=0, tag=1)
            comm.send("me", dest=0, tag=1)
            return req.wait()

        assert run(1, main)[0] == "me"


class TestNonblocking:
    def test_irecv_isend_roundtrip(self):
        def main(comm):
            other = 1 - comm.rank
            req = comm.irecv(source=other, tag=2)
            comm.isend(np.full(3, comm.rank), dest=other, tag=2)
            return req.wait()

        res = run(2, main)
        np.testing.assert_array_equal(res[0], np.full(3, 1.0))
        np.testing.assert_array_equal(res[1], np.full(3, 0.0))

    def test_send_request_is_complete(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.isend(1.0, dest=1)
                return req.test()
            comm.recv(source=0)
            return None

        assert run(2, main)[0] is True

    def test_posted_irecv_matches_before_later_recv(self):
        """A posted irecv has matching priority over later receives."""

        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=7)
                second = comm.recv(source=1, tag=7)
                first = req.wait()
                return first, second
            comm.send("one", dest=0, tag=7)
            comm.send("two", dest=0, tag=7)
            return None

        assert run(2, main)[0] == ("one", "two")

    def test_waitall_returns_in_request_order(self):
        def main(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=t) for t in (1, 2, 3)]
                return waitall(reqs)
            for t in (3, 2, 1):
                comm.send(t * 10, dest=0, tag=t)
            return None

        assert run(2, main)[0] == [10, 20, 30]

    def test_wait_is_idempotent(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                a = req.wait()
                b = req.wait()
                return a, b
            comm.send(42, dest=0)
            return None

        assert run(2, main)[0] == (42, 42)

    def test_request_status_after_wait(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=4)
                req.wait()
                return req.status.source, req.status.tag
            comm.send(np.zeros(2), dest=0, tag=4)
            return None

        assert run(2, main)[0] == (1, 4)


class TestWildcardDelivery:
    def test_wildcard_recv_under_concurrent_delivery_stress(self):
        """Multi-rank stress: rank 0 takes wildcard receives while three
        senders deliver concurrently.  Asserts all messages arrive,
        per-source FIFO holds, and nothing is left unmatched."""
        nmsg = 30

        def main(comm):
            if comm.rank != 0:
                for i in range(nmsg):
                    comm.send((comm.rank, i), dest=0, tag=7)
                return None
            per_source = {r: [] for r in range(1, comm.size)}
            for _ in range((comm.size - 1) * nmsg):
                src, i = comm.recv(source=ANY_SOURCE, tag=7)
                per_source[src].append(i)
            assert not comm._runtime.mailbox(0).unexpected
            return per_source

        per_source = run(4, main)[0]
        for src, seq in per_source.items():
            assert seq == list(range(nmsg)), f"source {src} out of order"


SIZES = [1, 2, 3, 4, 5, 7, 8, 12, 16]


@pytest.mark.parametrize("p", SIZES)
class TestAcrossSizes:
    def test_ring_exchange_with_waitall(self, p):
        """Each rank swaps with both neighbours through isend/irecv and
        one waitall, the pairwise gather-scatter pattern."""

        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            reqs = [
                comm.irecv(source=left, tag=1),
                comm.irecv(source=right, tag=2),
            ]
            comm.isend(np.full(2, comm.rank), dest=right, tag=1)
            comm.isend(np.full(3, comm.rank), dest=left, tag=2)
            return waitall(reqs)

        for r, (from_left, from_right) in enumerate(run(p, main)):
            np.testing.assert_array_equal(from_left, np.full(2, (r - 1) % p))
            np.testing.assert_array_equal(from_right, np.full(3, (r + 1) % p))

    def test_any_source_collects_from_every_peer(self, p):
        def main(comm):
            if comm.rank != 0:
                comm.send(comm.rank * 10, dest=0, tag=comm.rank)
                return None
            got = {}
            for _ in range(comm.size - 1):
                payload, status = comm.recv(return_status=True)
                assert status.tag == status.source
                got[status.source] = payload
            return got

        assert run(p, main)[0] == {r: r * 10 for r in range(1, p)}


class TestRankValidation:
    def test_bad_dest(self):
        from repro.mpi import MPIError

        def main(comm):
            comm.send(1, dest=5)

        with pytest.raises(MPIError):
            run(2, main)

    def test_bad_source(self):
        from repro.mpi import MPIError

        def main(comm):
            comm.recv(source=-3)

        with pytest.raises(MPIError):
            run(2, main)


class TestVirtualTiming:
    def test_recv_charges_latency(self):
        """Receiving a message from a peer costs at least base latency."""

        def main(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1000), dest=1)
                return comm.clock.now
            comm.recv(source=0)
            return comm.clock.now

        res = run(2, main)
        # Receiver finishes after the sender injected + wire time.
        assert res[1] > res[0]

    def test_larger_messages_cost_more(self):
        def main(comm, nbytes):
            if comm.rank == 0:
                comm.send(np.zeros(nbytes // 8), dest=1)
                return 0.0
            comm.recv(source=0)
            return comm.clock.now

        t_small = Runtime(nranks=2).run(main, args=(1_000,))[1]
        t_big = Runtime(nranks=2).run(main, args=(10_000_000,))[1]
        assert t_big > t_small

    def test_compute_advances_clock(self):
        def main(comm):
            comm.compute(seconds=0.5)
            comm.compute(flops=1e9)
            return comm.clock.now, comm.clock.compute_time

        now, comp = run(1, main)[0]
        assert now == comp
        assert now > 0.5
