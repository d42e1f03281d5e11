"""The generic crystal-router transport (sparse all-to-all)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gs.crystal import TAG_CRYSTAL, route
from repro.mpi import MPIError, Runtime

from .crystal_oracle import route_oracle


def run_route(nranks, records_fn, router=route, trace=False):
    """Per rank, the ``(ids, rows)`` that arrived, as lists in arrival
    order; ``records_fn(rank, size)`` gives ``(dest, ids, rows)``."""

    def main(comm):
        ids, rows = router(*records_fn(comm.rank, comm.size), comm)
        return ids.tolist(), rows.tolist()

    rt = Runtime(nranks=nranks, trace_messages=trace)
    out = rt.run(main)
    return (out, rt.trace.events()) if trace else out


def by_id(arrived):
    """Normalize: sort by id for comparison."""
    ids, rows = arrived
    order = np.argsort(ids, kind="stable")
    return [ids[i] for i in order], [rows[i] for i in order]


def reference(nranks, records_fn):
    """What each rank should receive, computed serially."""
    inbox = {r: ([], []) for r in range(nranks)}
    for src in range(nranks):
        dest, ids, rows = records_fn(src, nranks)
        for d, g, v in zip(dest, np.asarray(ids).tolist(),
                           np.asarray(rows).tolist()):
            inbox[int(d)][0].append(g)
            inbox[int(d)][1].append(v)
    return {r: by_id(got) for r, got in inbox.items()}


@pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 7, 8, 13])
def test_all_pairs_delivery(nranks):
    """Every rank sends a distinct record to every rank (incl. itself)."""

    def records(rank, size):
        dest = np.arange(size)
        return dest, rank * 100 + dest, (rank * 1000.0 + dest)[:, None]

    res = run_route(nranks, records)
    ref = reference(nranks, records)
    for r in range(nranks):
        assert by_id(res[r]) == ref[r]


@pytest.mark.parametrize("nranks", [2, 5, 8])
def test_sparse_destinations(nranks):
    """Only some ranks send, to only some destinations."""

    def records(rank, size):
        if rank % 2 == 1:
            return np.empty(0, int), np.empty(0, int), np.empty((0, 1))
        return (np.array([(rank + 1) % size]), np.array([rank]),
                np.array([[float(rank)]]))

    res = run_route(nranks, records)
    ref = reference(nranks, records)
    for r in range(nranks):
        assert by_id(res[r]) == ref[r]


def test_empty_everywhere():
    empty = np.empty(0, int), np.empty(0, int), np.empty((0, 2))
    res = run_route(4, lambda rank, size: empty)
    assert all(r == ([], []) for r in res)


def random_traffic(seed, nranks, width, dtype=np.float64):
    """``records_fn`` of a random sparse traffic matrix: per rank up to 12
    records, some to itself, ids repeating across and within ranks."""
    rng = np.random.default_rng(seed)
    traffic = []
    for _src in range(nranks):
        n = int(rng.integers(0, 13))
        rows = (10 * rng.standard_normal((n, width))).astype(dtype)
        traffic.append(
            (rng.integers(0, nranks, n), rng.integers(0, 50, n), rows)
        )
    return lambda rank, size: traffic[rank]


@given(st.integers(0, 10_000), st.integers(2, 6))
@settings(max_examples=15, deadline=None)
def test_property_random_traffic(seed, nranks):
    """Random sparse traffic matrices route correctly for any P."""
    records = random_traffic(seed, nranks, 1)
    res = run_route(nranks, records)
    ref = reference(nranks, records)
    for r in range(nranks):
        # Compare as multisets of (id, row) pairs.
        got_pairs = sorted(zip(*res[r]))
        ref_pairs = sorted(zip(*ref[r]))
        assert got_pairs == ref_pairs


@given(st.integers(0, 10_000), st.integers(1, 13), st.integers(1, 6),
       st.sampled_from([np.float64, np.int64, np.float32]))
@settings(max_examples=40, deadline=None)
def test_property_arrival_order_and_message_sizes(seed, nranks, width, dtype):
    """Records reach a rank in exactly the order the dict-shipping router
    delivered them (not just the same multiset), at the same virtual
    times; and every message is charged the closed form of its header:
    one count word, a (dest, count) pair per destination group, an id
    and a row per record."""
    records = random_traffic(seed, nranks, width, dtype)
    got, trace = run_route(nranks, records, trace=True)
    want, want_trace = run_route(nranks, records, route_oracle, trace=True)
    assert got == want
    assert trace == want_trace

    # The messages themselves: unpickled byte arrays of the charged size.
    def main(comm):
        sent = []
        inject = comm._inject

        def spy(payload, nbytes, *rest):
            sent.append((payload, nbytes))
            inject(payload, nbytes, *rest)

        comm._inject = spy
        route(*records(comm.rank, comm.size), comm)
        return sent

    row_bytes = width * np.dtype(dtype).itemsize
    sent = [m for rank in Runtime(nranks=nranks).run(main) for m in rank]
    for msg, nbytes in sent:
        assert msg.dtype == np.uint8 and msg.ndim == 1
        groups = int(msg[:8].view(np.int64)[0])
        header = msg[8:8 + 16 * groups].view(np.int64).reshape(groups, 2)
        n = int(header[:, 1].sum())
        assert len(set(header[:, 0].tolist())) == groups
        assert nbytes == msg.nbytes
        assert nbytes == 8 * (1 + 2 * groups) + n * (8 + row_bytes)
    assert sorted(e.nbytes for e in trace) == sorted(n for _, n in sent)


def test_a_message_that_is_not_a_stage_message_is_an_error():
    """Rank 1 posts typed rows where rank 0 expects a stage message."""

    def main(comm):
        if comm.rank == 1:
            comm.send(np.zeros((2, 1)), dest=0, tag=TAG_CRYSTAL + 1)
            return comm.recv(source=0, tag=TAG_CRYSTAL + 1).dtype
        return route(np.array([1]), np.array([7]), np.ones((1, 1)), comm)

    with pytest.raises(MPIError, match=r"expected a stage message of \(1,\) float64 rows"):
        Runtime(nranks=2).run(main)


def test_stage_count_is_logarithmic():
    """The paper: crystal router completes in ~log2(P) stages.

    Count distinct communication rounds via the MPI profile: each stage
    is one isend+recv per rank, so message count per rank is O(log P),
    not O(P).
    """

    def records(rank, size):
        # all-to-all traffic: worst case for pairwise, fine for crystal
        dest = np.array([d for d in range(size) if d != rank])
        return dest, np.full(len(dest), rank), np.ones((len(dest), 1))

    for p, max_msgs in [(8, 3 + 1), (16, 4 + 1)]:
        rt = Runtime(nranks=p)

        def main(comm):
            route(*records(comm.rank, comm.size), comm)

        rt.run(main)
        prof = rt.job_profile()
        sends = sum(
            r.count for r in prof.aggregates()
            if r.op in ("MPI_Send", "MPI_Isend")
        )
        # pow2: exactly log2(p) stage messages per rank
        assert sends <= p * max_msgs
