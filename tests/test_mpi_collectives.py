"""Collective operations against serial references, across rank counts.

Sizes include non-powers-of-two to exercise the fold/unfold paths of
the recursive-doubling allreduce and the binomial trees.
"""

import functools

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, SUM, Runtime

SIZES = [1, 2, 3, 4, 5, 7, 8, 12, 16]


def run(nranks, fn, *args):
    return Runtime(nranks=nranks).run(fn, args=args)


@pytest.mark.parametrize("p", SIZES)
class TestAllreduce:
    def test_sum_scalar(self, p):
        res = run(p, lambda comm: comm.allreduce(comm.rank + 1))
        assert res == [p * (p + 1) // 2] * p

    def test_sum_array(self, p):
        def main(comm):
            return comm.allreduce(np.array([comm.rank, 1.0, -comm.rank]))

        res = run(p, main)
        expected = np.array([p * (p - 1) / 2, p, -p * (p - 1) / 2])
        for r in res:
            np.testing.assert_allclose(r, expected)

    def test_min_max(self, p):
        def main(comm):
            return (
                comm.allreduce(comm.rank, op=MIN),
                comm.allreduce(comm.rank, op=MAX),
            )

        res = run(p, main)
        assert all(r == (0, p - 1) for r in res)

    def test_prod(self, p):
        def main(comm):
            return comm.allreduce(2.0, op=PROD)

        res = run(p, main)
        assert all(r == pytest.approx(2.0**p) for r in res)


@pytest.mark.parametrize("p", SIZES)
class TestBcastReduce:
    def test_bcast_from_each_root(self, p):
        def main(comm, root):
            data = {"payload": comm.rank} if comm.rank == root else None
            return comm.bcast(data, root=root)

        for root in {0, p // 2, p - 1}:
            res = run(p, main, root)
            assert res == [{"payload": root}] * p

    def test_reduce_sum(self, p):
        def main(comm, root):
            return comm.reduce(np.array([comm.rank]), op=SUM, root=root)

        root = p - 1
        res = run(p, main, root)
        for r, v in enumerate(res):
            if r == root:
                assert v[0] == p * (p - 1) / 2
            else:
                assert v is None


@pytest.mark.parametrize("p", SIZES)
class TestGatherScatterAllgather:
    def test_allgather(self, p):
        res = run(p, lambda comm: comm.allgather(comm.rank * 2))
        assert res == [[2 * i for i in range(p)]] * p

    def test_gather(self, p):
        def main(comm):
            return comm.gather(str(comm.rank), root=0)

        res = run(p, main)
        assert res[0] == [str(i) for i in range(p)]
        assert all(v is None for v in res[1:])

    def test_scatter(self, p):
        def main(comm):
            payloads = (
                [f"item{i}" for i in range(comm.size)]
                if comm.rank == 0
                else None
            )
            return comm.scatter(payloads, root=0)

        res = run(p, main)
        assert res == [f"item{i}" for i in range(p)]

    def test_alltoall(self, p):
        def main(comm):
            send = [(comm.rank, d) for d in range(comm.size)]
            return comm.alltoall(send)

        res = run(p, main)
        for r, got in enumerate(res):
            assert got == [(s, r) for s in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_barrier_completes(p):
    def main(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert all(run(p, main))


def test_barrier_synchronizes_virtual_time():
    """After a barrier no rank's clock can lag a peer's pre-barrier time."""

    def main(comm):
        if comm.rank == 0:
            comm.compute(seconds=1.0)
        before = comm.clock.now
        comm.barrier()
        return before, comm.clock.now

    res = Runtime(nranks=4).run(main)
    slowest_before = max(b for b, _ in res)
    assert all(after >= slowest_before for _, after in res)


def test_allreduce_matches_functools_reduce():
    """Cross-check against a serial reduction for irregular values."""
    rng = np.random.default_rng(7)
    p = 6
    values = [rng.standard_normal(5) for _ in range(p)]

    def main(comm):
        return comm.allreduce(values[comm.rank])

    res = Runtime(nranks=p).run(main)
    expected = functools.reduce(lambda a, b: a + b, values)
    for r in res:
        np.testing.assert_allclose(r, expected, rtol=1e-12)


def test_scatter_requires_payload_per_rank():
    from repro.mpi import MPIError

    def main(comm):
        payloads = [1] if comm.rank == 0 else None
        return comm.scatter(payloads, root=0)

    with pytest.raises(MPIError):
        Runtime(nranks=2).run(main)


def test_alltoall_requires_full_list():
    from repro.mpi import MPIError

    def main(comm):
        return comm.alltoall([1])

    with pytest.raises(MPIError):
        Runtime(nranks=3).run(main)


@pytest.mark.parametrize("p", SIZES)
class TestScanExscan:
    def test_scan_sum(self, p):
        res = run(p, lambda comm: comm.scan(comm.rank + 1))
        assert res == [sum(range(1, r + 2)) for r in range(p)]

    def test_scan_arrays(self, p):
        def main(comm):
            return comm.scan(np.array([comm.rank, 1.0]))

        res = run(p, main)
        for r, v in enumerate(res):
            np.testing.assert_allclose(v, [r * (r + 1) / 2, r + 1])

    def test_scan_noncommutative_order(self, p):
        """Prefix over string concatenation: strict rank order."""
        from repro.mpi import ReduceOp

        concat = ReduceOp("CONCAT", lambda a, b: a + b)

        def main(comm):
            return comm.scan(chr(ord("a") + comm.rank), op=concat)

        res = run(p, main)
        alphabet = "".join(chr(ord("a") + i) for i in range(p))
        assert res == [alphabet[: r + 1] for r in range(p)]

    def test_exscan(self, p):
        res = run(p, lambda comm: comm.exscan(comm.rank + 1))
        assert res[0] is None
        for r in range(1, p):
            assert res[r] == sum(range(1, r + 1))

    def test_exscan_offsets_usage(self, p):
        """The classic use: globally numbering variable-length blocks."""

        def main(comm):
            mine = comm.rank + 2          # block length
            offset = comm.exscan(mine) or 0
            total = comm.allreduce(mine)
            return offset, mine, total

        res = run(p, main)
        expect_offset = 0
        total = sum(r + 2 for r in range(p))
        for r, (offset, mine, tot) in enumerate(res):
            assert offset == expect_offset
            assert tot == total
            expect_offset += mine
