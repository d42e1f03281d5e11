"""Collective operations against serial references, across rank counts.

Sizes include non-powers-of-two to exercise the fold/unfold paths of
the recursive-doubling allreduce.
"""

import functools
from collections import Counter

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, ReduceOp, Runtime
from repro.mpi.communicator import allreduce_stages

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

    def test_bitwise_same_on_every_rank(self, p):
        """Float sums agree to the last bit on every rank, folded ranks
        included: each stage combines with a commutative op."""
        values = np.random.default_rng(p).standard_normal((p, 7))

        def main(comm):
            return comm.allreduce(values[comm.rank])

        res = run(p, main)
        for r in res[1:]:
            assert r.tobytes() == res[0].tobytes()
        np.testing.assert_allclose(res[0], values.sum(axis=0), rtol=1e-12)

    def test_input_not_modified(self, p):
        def main(comm):
            mine = np.full(3, float(comm.rank))
            total = comm.allreduce(mine)
            return mine, total

        for r, (mine, total) in enumerate(run(p, main)):
            np.testing.assert_array_equal(mine, np.full(3, float(r)))
            np.testing.assert_array_equal(total, np.full(3, p * (p - 1) / 2))

    def test_user_op(self, p):
        """A custom elementwise op: the largest magnitude, sign kept."""
        absmax = ReduceOp(
            "ABSMAX", lambda a, b: np.where(np.abs(a) >= np.abs(b), a, b)
        )

        def main(comm):
            r = comm.rank
            return comm.allreduce(np.array([r, -r, (-1) ** r * r]), op=absmax)

        top = p - 1
        expected = [top, -top, (-1) ** top * top]
        for r in run(p, main):
            np.testing.assert_array_equal(r, expected)


@pytest.mark.parametrize("p", SIZES)
class TestAllgatherAlltoall:
    def test_allgather(self, p):
        res = run(p, lambda comm: comm.allgather(comm.rank * 2))
        assert res == [[2 * i for i in range(p)]] * p

    def test_alltoall(self, p):
        def main(comm):
            send = [(comm.rank, d) for d in range(comm.size)]
            return comm.alltoall(send)

        res = run(p, main)
        for r, got in enumerate(res):
            assert got == [(s, r) for s in range(p)]

    def test_allgather_arrays_of_varying_length(self, p):
        def main(comm):
            return comm.allgather(np.arange(comm.rank + 1, dtype=float))

        for got in run(p, main):
            assert len(got) == p
            for r, block in enumerate(got):
                np.testing.assert_array_equal(block, np.arange(r + 1.0))

    def test_block_offsets_from_allgather(self, p):
        """Globally numbering variable-length blocks: each rank's
        offset is the sum of the lengths below it."""

        def main(comm):
            lengths = comm.allgather(comm.rank + 2)
            return sum(lengths[: comm.rank]), sum(lengths)

        offset, total = 0, sum(r + 2 for r in range(p))
        for r, got in enumerate(run(p, main)):
            assert got == (offset, total)
            offset += r + 2

    def test_alltoall_ragged_arrays(self, p):
        """Per-destination arrays of differing lengths, as the
        ``gs_setup`` discovery sends them."""

        def main(comm):
            send = [
                np.full(d + comm.rank, comm.rank, dtype=np.int64)
                for d in range(comm.size)
            ]
            return comm.alltoall(send)

        for r, got in enumerate(run(p, main)):
            for s, block in enumerate(got):
                np.testing.assert_array_equal(
                    block, np.full(r + s, s, dtype=np.int64)
                )


@pytest.mark.parametrize("p", SIZES)
def test_collectives_never_match_user_receives(p):
    """A wildcard receive posted before the collectives still gets the
    user message sent after them, not collective-internal traffic."""

    def main(comm):
        req = comm.irecv()
        comm.barrier()
        total = comm.allreduce(1)
        ranks = comm.allgather(comm.rank)
        back = comm.alltoall(list(range(comm.size)))
        comm.send(("ring", comm.rank), dest=(comm.rank + 1) % comm.size)
        return req.wait(), total, ranks, back

    for r, (msg, total, ranks, back) in enumerate(run(p, main)):
        assert msg == ("ring", (r - 1) % p)
        assert total == p
        assert ranks == list(range(p))
        assert back == [r] * p


@pytest.mark.parametrize("p", SIZES)
def test_barrier_holds_every_rank_to_the_slowest(p):
    def main(comm):
        if comm.rank == comm.size - 1:
            comm.compute(seconds=1.0)
        comm.barrier()
        return comm.clock.now

    assert all(after >= 1.0 for after in run(p, main))


@pytest.mark.parametrize("p", SIZES)
def test_each_collective_is_one_profile_row_per_rank(p):
    def main(comm):
        comm.barrier(site="b")
        comm.allreduce(1.0, site="r")
        comm.allgather(comm.rank, site="g")
        comm.alltoall([0] * comm.size, site="a")

    rt = Runtime(nranks=p)
    rt.run(main)
    rows = {
        (a.site, a.op): a.count
        for a in rt.job_profile().aggregates()
        if a.site in {"b", "r", "g", "a"}
    }
    assert rows == {
        ("b", "MPI_Barrier"): p,
        ("r", "MPI_Allreduce"): p,
        ("g", "MPI_Allgather"): p,
        ("a", "MPI_Alltoall"): p,
    }


@pytest.mark.parametrize("size", range(1, 33))
def test_allreduce_stages_count_each_rank_once(size):
    """Play the stage table on multisets of contributing ranks: no rank
    sends or receives twice in a stage, and every rank ends holding
    every contribution exactly once."""
    held = [Counter([r]) for r in range(size)]
    stages = allreduce_stages(size)
    for _tag, combine, senders, receivers in stages:
        assert len(set(senders)) == len(senders)
        assert len(set(receivers)) == len(receivers)
        nxt = list(held)
        for s, d in zip(senders, receivers):
            nxt[d] = held[d] + held[s] if combine else held[s]
        held = nxt
    assert held == [Counter(range(size))] * size
    pof2 = 1 << (size.bit_length() - 1)
    fold = 2 if size > pof2 else 0
    assert len(stages) == pof2.bit_length() - 1 + fold


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


def test_alltoall_requires_full_list():
    from repro.mpi import MPIError

    def main(comm):
        return comm.alltoall([1])

    with pytest.raises(MPIError):
        Runtime(nranks=3).run(main)

