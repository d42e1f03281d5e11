"""The message fast path: plan vs straight-line reference, codec, waits.

``PairwisePlan`` replaced three hand-written irecv/isend/waitall/fold
loops, and its stacked ``exchange`` replaced ``gs_op``'s loop over the
fields of a stack.  The reference below *is* those loops, rebuilt from
the public point-to-point API, and every observable of a run — values,
virtual clocks, profile rows in insertion order, the message trace —
must match it exactly, with and without injected faults.  The rest covers what the fast path rests
on: the raw envelope codec, the mailbox wake primitive under
``waitall``, and the deadlock rule over the lock-free status slots.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cmtbone import CMTBone
from repro.core.config import CMTBoneConfig
from repro.faults import FaultPlan
from repro.gs import (
    exchange_pairwise,
    gs_op,
    gs_op_begin,
    gs_op_finish,
    gs_op_many,
    gs_setup,
)
from repro.gs.pairwise import TAG_PAIRWISE
from repro.mesh import BoxMesh, Partition, continuous_numbering, dg_face_numbering
from repro.mpi import (
    MAX, SUM, DeadlockError, MPIError, RankCrashError, Runtime,
)
from repro.mpi import backend as backend_mod
from repro.mpi import shm
from repro.mpi.errors import AbortError
from repro.mpi.request import waitall
from repro.mpi.shm import ShmRing, dump_envelope, load_envelope
from repro.mpi.transport import _WAIT_POLL, Envelope, Mailbox

PART = Partition(BoxMesh(shape=(4, 2, 2), n=3), proc_shape=(2, 2, 1))
#: Open ends along x: the faces there have one copy in the job, so a
#: pair plan loads its ops' identities.
OPEN = Partition(
    BoxMesh(shape=(4, 2, 2), n=3, periodic=(False, True, True)),
    proc_shape=(2, 2, 1),
)
NUMBERINGS = {
    "dg": dg_face_numbering,
    "dg-open": lambda part, rank: dg_face_numbering(OPEN, rank),
    "c0": continuous_numbering,
}
SITE = "msgpath"
#: Compute charged between the split-phase halves (virtual seconds).
HIDE = 3e-6


# -- the straight-line reference ---------------------------------------


def ref_exchange(handle, cond, op, site, tag):
    """irecv + isend + waitall + fold-on-a-copy; also returns the requests."""
    comm = handle.comm
    lead = (slice(None),) * (cond.ndim - 1)
    reqs = [comm.irecv(source=q, tag=tag, site=site) for q in handle.neighbors]
    for q in handle.neighbors:
        key = lead + (handle.neighbor_send_index[q],)
        comm.isend(np.ascontiguousarray(cond[key]), dest=q, tag=tag, site=site)
    return reqs, lambda payloads: _fold(handle, cond, op, lead, payloads)


def _fold(handle, cond, op, lead, payloads):
    out = cond.copy()
    for q, vals in zip(handle.neighbors, payloads):
        key = lead + (handle.neighbor_send_index[q],)
        out[key] = op.ufunc(out[key], vals)
    return out


def _local_charge(handle, size, itemsize, n_cond):
    handle.comm.compute(
        flops=float(size), mem_bytes=2.0 * itemsize * (size + n_cond)
    )


def ref_blocking(handle, u, op):
    cond = handle.condense(u, op)
    reqs, fold = ref_exchange(handle, cond, op, SITE, TAG_PAIRWISE)
    out = handle.scatter(fold(waitall(reqs, site=SITE)))
    _local_charge(handle, u.size, u.dtype.itemsize, handle.n_unique)
    return [out]


def ref_split(handle, u, op):
    comm = handle.comm
    cond = handle.condense(u, op)
    reqs, fold = ref_exchange(handle, cond, op, f"{SITE}:begin", TAG_PAIRWISE)
    window = comm.clock.overlap_interval()
    comm.compute(seconds=HIDE)
    wait_start = comm.clock.now
    payloads = waitall(reqs, site=f"{SITE}:finish")
    if reqs:
        comm.clock.close_overlap(
            window, max(r.status.arrival_vtime for r in reqs),
            wait_start=wait_start,
        )
    out = handle.scatter(fold(payloads))
    _local_charge(handle, u.size, cond.dtype.itemsize, handle.n_unique)
    return [out]


def ref_many(handle, u, op):
    fields = [u, u[::-1].copy()]
    cond = np.stack([handle.condense(f, op) for f in fields])
    reqs, fold = ref_exchange(handle, cond, op, SITE, TAG_PAIRWISE + 1)
    cond = fold(waitall(reqs, site=SITE))
    outs = [handle.scatter(c) for c in cond]
    size = len(fields) * handle.inverse.size
    _local_charge(handle, size, cond.dtype.itemsize, cond.size)
    return outs


def _three_fields(u):
    return [u, u[::-1].copy(), u * 2]


def ref_stacked(handle, u, op):
    """One field at a time, in stack order: irecv/isend/waitall/fold,
    then the field's local charge."""
    outs = []
    for field in _three_fields(u):
        cond = handle.condense(field, op)
        reqs, fold = ref_exchange(handle, cond, op, SITE, TAG_PAIRWISE)
        outs.append(handle.scatter(fold(waitall(reqs, site=SITE))))
        _local_charge(handle, u.size, u.dtype.itemsize, handle.n_unique)
    return outs


def real_blocking(handle, u, op):
    return [gs_op(handle, u, op=op, site=SITE)]


def real_split(handle, u, op):
    exchange = gs_op_begin(handle, u, op=op, site=SITE)
    handle.comm.compute(seconds=HIDE)
    return [gs_op_finish(exchange)]


def real_many(handle, u, op):
    return gs_op_many(handle, [u, u[::-1].copy()], op=op, site=SITE)


def real_stacked(handle, u, op):
    return list(gs_op(handle, np.stack(_three_fields(u)), op=op, site=SITE))


#: The solver's trace stack: NEQ state and NEQ flux traces folded by
#: one op, the wavespeed by the other (``CMTSolver._exchange_traces``).
NEQ = 5


def _trace_stack(u, op):
    other = MAX if op is SUM else SUM
    fields = [u * (1 + k) - k for k in range(2 * NEQ)] + [u[::-1].copy()]
    return np.stack(fields), (op,) * (2 * NEQ) + (other,)


def real_mixed(handle, u, op, method=None):
    """One ``gs_op`` over the whole stack, one op per field."""
    stack, ops = _trace_stack(u, op)
    return list(gs_op(handle, stack, op=ops, method=method, site=SITE))


def ref_mixed(handle, u, op, method=None):
    """One call per run of equal ops: the state traces, the flux
    traces, then the wavespeed."""
    stack, ops = _trace_stack(u, op)
    outs = []
    for part in (slice(0, NEQ), slice(NEQ, 2 * NEQ)):
        outs.extend(gs_op(handle, stack[part], op=ops[part.start],
                          method=method, site=SITE))
    outs.append(gs_op(handle, stack[-1], op=ops[-1], method=method,
                      site=SITE))
    return outs


def _with_method(mode, method):
    return lambda handle, u, op: mode(handle, u, op, method=method)


MODES = {
    "blocking": (real_blocking, ref_blocking),
    "split": (real_split, ref_split),
    "many": (real_many, ref_many),
    "stacked": (real_stacked, ref_stacked),
    "mixed": (real_mixed, ref_mixed),
    **{
        f"mixed-{method}": (
            _with_method(real_mixed, method), _with_method(ref_mixed, method)
        )
        for method in ("crystal", "allreduce")
    },
}
#: Modes whose exchange messages carry the pairwise tags.
PAIRWISE_MODES = ["blocking", "split", "many", "stacked", "mixed"]
#: ``crash`` kills rank 2 by virtual time half-way through its exchange
#: rounds (``time=`` is filled in per run); its neighbours then abort
#: wherever they are, so only the crashed rank's record is compared.
FAULTS = {
    "clean": {},
    "faults": {"spec": "drop:src=0,dst=1,nth=2;drop:p=0.2;"
                       "degrade:src=2,dst=3,factor=4"},
    "trace": {"trace": True},
    "crash": {"spec": "crash:rank=2,time={}"},
}
CRASHED = 2


def _run(exchange, numbering, op, dtype, spec=None, trace=False,
         backend="threads"):
    """Per rank: ``(values, clocks, profile rows, set-up end time)``."""
    crashed = {}

    def observables(comm, outs, t_setup):
        clock = comm.clock
        rows = [
            (r.op, r.site, r.count, r.vtime, r.bytes_total)
            for r in comm.profile.records.values()
        ]
        return outs, (
            clock.now, clock.comm_time, clock.retry_time,
            clock.hidden_comm_time,
        ), rows, t_setup

    def main(comm):
        gids = NUMBERINGS[numbering](PART, comm.rank)
        handle = gs_setup(gids, comm)
        rng = np.random.default_rng(7 + comm.rank)
        u = (rng.standard_normal(gids.shape) * 100).astype(dtype)
        outs = []
        t_setup = comm.clock.now
        try:
            for _ in range(3):  # several rounds: sequence numbers move on
                outs.extend(exchange(handle, u, op))
                u = outs[-1]
        except RankCrashError:
            crashed[comm.rank] = observables(comm, outs, t_setup)
            raise
        return observables(comm, outs, t_setup)

    if spec and "{}" in spec:
        # Half-way through the crashed rank's rounds in a clean run.
        _, (end, *_), _, t_setup = _run(
            exchange, numbering, op, dtype
        )[0][CRASHED]
        spec = spec.format(repr((t_setup + end) / 2))
    plan = FaultPlan.parse(spec, seed=11) if spec else None
    rt = Runtime(nranks=4, fault_plan=plan, trace_messages=trace,
                 backend=backend)
    try:
        results = rt.run(main)
    except RankCrashError as err:
        return [(err.rank, err.vtime, crashed[err.rank])], None
    return results, (rt.trace.events() if trace else None)


def _first_exchange_nth(numbering, mode):
    """1-based position, in the 0 -> 1 link's send order, of rank 0's
    first exchange message to rank 1 (setup traffic comes before it)."""
    real, _ = MODES[mode]
    _, trace = _run(real, numbering, SUM, np.float64, trace=True)
    seqs = [
        e.seq for e in trace
        if (e.src, e.dst) == (0, 1) and e.tag in (TAG_PAIRWISE, TAG_PAIRWISE + 1)
    ]
    return min(seqs) + 1


def _assert_same(got, want):
    for rank, (g, w) in enumerate(zip(got, want)):
        for a, b in zip(g[0], w[0], strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), rank
        assert g[1] == w[1], f"rank {rank} clocks"
        assert g[2] == w[2], f"rank {rank} profile rows"


class TestPlanAgainstStraightLineReference:
    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("op", [SUM, MAX], ids=["sum", "max"])
    @pytest.mark.parametrize("numbering", list(NUMBERINGS))
    def test_every_observable_matches(self, numbering, op, dtype, mode, fault):
        real, ref = MODES[mode]
        got, got_trace = _run(real, numbering, op, dtype, **FAULTS[fault])
        want, want_trace = _run(ref, numbering, op, dtype, **FAULTS[fault])
        if fault == "crash":
            assert got[0][:2] == want[0][:2]  # who crashed, and when
            assert got[0][0] == CRASHED
            got, want = [got[0][2]], [want[0][2]]
        _assert_same(got, want)
        assert got_trace == want_trace
        if fault == "faults":
            assert any(g[1][2] > 0 for g in got)  # the plan did drop

    @pytest.mark.parametrize("backend", ["procs", "sockets"])
    @pytest.mark.parametrize("mode", [m for m in MODES if "mixed" in m])
    def test_mixed_stack_matches_on_process_backends(self, mode, backend):
        """The mixed stack on forked ranks, with drops and a degraded
        link, against the three separate calls on thread ranks."""
        real, ref = MODES[mode]
        faults = {"spec": FAULTS["faults"]["spec"], "trace": True}
        got, got_trace = _run(real, "dg", SUM, np.float64, backend=backend,
                              **faults)
        want, want_trace = _run(ref, "dg", SUM, np.float64, **faults)
        _assert_same(got, want)
        assert got_trace == want_trace

    @pytest.mark.parametrize("mode", PAIRWISE_MODES)
    @pytest.mark.parametrize("numbering", list(NUMBERINGS))
    def test_dropped_first_send_books_its_retry_before_the_send(
        self, numbering, mode
    ):
        """The retry row of a dropped message is created inside the send,
        before the send's own row: a first exchange whose very first
        message drops lists ``FAULT_Retry`` ahead of ``MPI_Isend``."""
        nth = _first_exchange_nth(numbering, mode)
        spec = f"drop:src=0,dst=1,nth={nth}"
        real, ref = MODES[mode]
        got, _ = _run(real, numbering, SUM, np.float64, spec=spec)
        want, _ = _run(ref, numbering, SUM, np.float64, spec=spec)
        _assert_same(got, want)
        ops = [row[0] for row in got[0][2]]
        assert ops.index("FAULT_Retry") < ops.index("MPI_Isend")

    def test_public_exchange_leaves_its_input_alone(self):
        """In-place folding is for arrays the gs layer condensed itself."""

        def main(comm):
            handle = gs_setup(dg_face_numbering(PART, comm.rank), comm)
            cond = np.arange(handle.n_unique, dtype=np.float64)
            keep = cond.copy()
            out = exchange_pairwise(handle, cond, SUM)
            again = exchange_pairwise(handle, cond, SUM)
            u = np.ones(handle.shape)  # autotune re-runs gs_op on one u
            gs_op(handle, u)
            return (
                np.array_equal(cond, keep)
                and not np.array_equal(out, keep)
                and np.array_equal(out, again)
                and np.array_equal(u, np.ones(handle.shape))
            )

        assert all(Runtime(nranks=4).run(main))

    def test_split_phase_and_packed_fold_with_one_op(self):
        """Only ``gs_op`` takes one op per field of a stack."""

        def main(comm):
            handle = gs_setup(dg_face_numbering(PART, comm.rank), comm)
            stack = np.ones((2,) + handle.shape)
            with pytest.raises(TypeError, match="one ReduceOp"):
                gs_op_begin(handle, stack, op=(SUM, MAX))
            with pytest.raises(TypeError, match="one ReduceOp"):
                gs_op_many(handle, [stack, stack], op=(SUM, MAX))
            return True

        assert all(Runtime(nranks=1).run(main))

    def test_plan_is_per_handle_and_never_copied_or_pickled(self):
        """Plans of all three methods and a five-field stack live in
        ``_derived``, which neither ``copy`` nor ``pickle`` carries."""
        import copy
        import pickle

        from repro.gs.pairwise import plan_for

        def blob(handle):
            comm, handle.comm = handle.comm, None
            try:
                return pickle.dumps(handle)
            finally:
                handle.comm = comm

        def main(comm):
            gids = continuous_numbering(PART, comm.rank)
            handle = gs_setup(gids, comm)
            fresh = blob(handle)
            for method in ("pairwise", "crystal", "allreduce"):
                gs_op(handle, np.ones((5,) + gids.shape), method=method)
            plan = plan_for(handle)
            clone = copy.copy(handle)
            rebuilt = gs_setup(gids, comm)  # what a rebalance does
            assert {"pairwise", "stacks", "crystal"} <= set(
                handle._derived
            )
            return (
                plan is plan_for(handle)
                and clone._derived == {}
                and plan_for(rebuilt) is not plan
                and blob(handle) == fresh
                and b"_derived" not in fresh
                and pickle.loads(fresh)._derived == {}
            )

        assert all(Runtime(nranks=4).run(main))


# -- the envelope codec -------------------------------------------------

_DTYPES = [
    np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_,
    np.complex128, np.dtype(">f8"), np.dtype(">i4"), np.dtype("U3"),
    np.dtype("S2"), np.dtype([("a", "<i4"), ("b", "<f8")]),
]


def _arrays():
    return st.sampled_from(_DTYPES).flatmap(
        lambda dt: hnp.arrays(
            dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
        )
    )


def _views(arr, how):
    if how == "transposed":
        return arr.T
    if how == "strided" and arr.ndim:
        return arr[::2]
    return arr


_PAYLOADS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # beyond 64 bits too
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=3),
    st.builds(_views, _arrays(), st.sampled_from(["plain", "transposed", "strided"])),
    _arrays().filter(lambda a: a.size).map(lambda a: a.reshape(-1)[0]),
    st.just(np.array([1, "x", None], dtype=object)),
)


def _same(a, b):
    assert type(a) is type(b)
    if isinstance(a, (np.ndarray, np.generic)):
        assert a.dtype == b.dtype and np.shape(a) == np.shape(b)
        if a.dtype.hasobject:
            assert np.array_equal(a, b)
        else:  # bitwise, so NaNs (also inside records) compare equal
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    else:
        assert a == b


class TestEnvelopeCodec:
    @settings(max_examples=300, deadline=None)
    @given(
        payload=_PAYLOADS,
        src=st.integers(0, 2**31 - 1),
        cid=st.integers(0, (1 << 60) + (1 << 57)),
        tag=st.integers(0, 1 << 30),
        vtime=st.floats(0, 1e6),
        seq=st.integers(0, 2**62),
    )
    def test_round_trip(self, payload, src, cid, tag, vtime, seq):
        env = Envelope(src, 3, cid, tag, payload, 17, vtime, seq)
        data = dump_envelope(env)
        assert data[:1] != backend_mod._FLUSH_MARK
        back = load_envelope(data)
        for name in ("src", "dst", "cid", "tag", "nbytes", "wire_vtime", "seq"):
            assert getattr(back, name) == getattr(env, name)
        _same(back.payload, payload)
        if isinstance(back.payload, np.ndarray):
            assert back.payload.flags.writeable
            assert not np.shares_memory(
                back.payload, np.frombuffer(data, dtype=np.uint8)
            )

    def test_hot_payloads_are_never_pickled(self, monkeypatch):
        class NoPickle:
            @staticmethod
            def dumps(*a, **k):
                raise AssertionError("pickled a numeric payload")

        monkeypatch.setattr(shm, "pickle", NoPickle)
        for payload in (
            None, 1.5, 7, True, np.float64(2.0), np.int32(3),
            np.arange(6.0).reshape(2, 3), np.zeros((0, 3)),
            np.arange(4, dtype=">i4"),
        ):
            dump_envelope(Envelope(0, 1, 1, 0, payload, 8, 0.0, 0))

    def test_through_the_ring_and_its_spill_path(self):
        ring = ShmRing(multiprocessing.get_context("fork"), capacity=4096)
        sizes = (4, 4000)  # whole, then far beyond the ring: fragments
        popped = []
        reader = threading.Thread(
            target=lambda: popped.extend(ring.pop(timeout=10.0) for _ in sizes),
            daemon=True,
        )
        reader.start()
        try:
            arrays = [np.arange(n, dtype=np.float64) for n in sizes]
            for arr in arrays:
                ring.push(dump_envelope(
                    Envelope(0, 1, 1, 0, arr, arr.nbytes, 0.5, arr.size)))
            reader.join(timeout=10.0)
            assert len(popped) == len(sizes)
            for arr, data in zip(arrays, popped):
                back = load_envelope(data).payload
                assert np.array_equal(back, arr)
                assert back.flags.owndata and back.flags.writeable
                back += 1  # must not be a view of the ring or its fragments
        finally:
            ring.destroy()

    def test_no_envelope_pickled_after_setup_on_procs(self, monkeypatch):
        """A running pairwise job ships arrays, floats and ``None`` only."""
        count = multiprocessing.get_context("fork").RawValue("q", 0)
        real_dumps = shm.pickle.dumps

        class CountingPickle:
            HIGHEST_PROTOCOL = shm.pickle.HIGHEST_PROTOCOL
            loads = staticmethod(shm.pickle.loads)

            @staticmethod
            def dumps(obj, protocol=None):
                count.value += 1  # both ranks may race: a lower bound
                return real_dumps(obj, protocol=protocol)

        monkeypatch.setattr(shm, "pickle", CountingPickle)
        config = CMTBoneConfig(
            n=5, local_shape=(2, 2, 2), nsteps=20, gs_method="pairwise"
        )

        def main(comm):
            app = CMTBone(comm, config)
            comm.barrier()
            before = count.value
            app.run()
            comm.barrier()
            return before, count.value

        for before, after in Runtime(nranks=2, backend="procs").run(main):
            assert before > 0  # gs_setup's discovery lists were pickled
            assert after == before


# -- waits on the mailbox wake primitive --------------------------------


class TestWaits:
    def test_abort_is_seen_within_one_poll(self):
        elapsed = []

        def main(comm):
            if comm.rank == 1:
                time.sleep(0.05)
                raise RuntimeError("boom")
            reqs = [comm.irecv(source=1, tag=t) for t in (1, 2, 3)]
            t0 = time.monotonic()
            try:
                waitall(reqs)
            except AbortError:
                elapsed.append(time.monotonic() - t0)
                raise

        rt = Runtime(nranks=2)
        with pytest.raises(MPIError, match="boom"):
            rt.run(main)
        assert elapsed and elapsed[0] < 0.05 + _WAIT_POLL + 0.25
        assert sum(rt.mailbox(r).blocked for r in range(2)) == 0

    def test_waitall_blocks_once_for_many(self):
        """N late receives cost one blocking wait, not N."""
        blocks = []

        def main(comm):
            if comm.rank == 1:
                time.sleep(0.05)
                for t in range(6):
                    comm.send(t, dest=0, tag=t)
                return None
            box = comm._runtime.mailbox(0)
            wait_for = box.wait_for
            box.wait_for = lambda *a, **k: (blocks.append(1), wait_for(*a, **k))
            reqs = [comm.irecv(source=1, tag=t) for t in range(6)]
            return waitall(reqs)

        assert Runtime(nranks=2).run(main)[0] == list(range(6))
        assert len(blocks) == 1


# -- the deadlock rule and the lock-free slots it reads ----------------


def _spin_publishing(status):
    """Publish rank 1's ``(blocked, delivered)`` slots without pause."""
    delivered = status[3]
    while True:
        delivered += 1
        status[2] = delivered & 1
        status[3] = delivered


def _spin_acking(link):
    while True:
        link._ack_flush(0)


class TestLockFreeTrackers:
    def test_killed_writer_cannot_wedge_the_shared_tracker(self):
        """ROADMAP item 1(a): a rank process SIGKILLed while publishing
        its ``(blocked, delivered)`` status slots leaves nothing held —
        there is no lock to hold — and the parent reads every slot."""
        ctx = multiprocessing.get_context("fork")
        job = backend_mod._ShmJob(ctx, 2, 1 << 16)
        status = job.status
        try:
            for _ in range(50):
                child = ctx.Process(
                    target=_spin_publishing, args=(status,), daemon=True
                )
                child.start()
                before = status[3]
                while status[3] == before:
                    time.sleep(0.0005)  # it really is mid-loop
                child.kill()
                child.join(5.0)
                assert not child.is_alive()
                t0 = time.monotonic()
                status[0], status[1] = 1, status[1] + 1
                slots = status[:]
                assert slots[0] == 1 and slots[3] > before
                status[0] = 0
                assert time.monotonic() - t0 < 1.0
            assert status[0] == 0 and status[1] == 50
        finally:
            for ring in job.rings:
                ring.destroy()

    def test_killed_acker_cannot_wedge_the_abort_fence(self, monkeypatch):
        """The same for the abort fence's ack counters: a rank SIGKILLed
        inside ``_ack_flush`` holds nothing, so a survivor's fenced
        ``set()`` still returns within its bound."""
        monkeypatch.setattr(backend_mod, "_FLUSH_TIMEOUT", 0.02)
        ctx = multiprocessing.get_context("fork")
        job = backend_mod._ShmJob(ctx, 2, 1 << 16)
        try:
            for _ in range(50):
                child = ctx.Process(
                    target=_spin_acking,
                    args=(backend_mod.ShmLink(job, 1, None),), daemon=True,
                )
                child.start()
                before = job.flush_acks[1]  # slot (src 0, dst 1)
                while job.flush_acks[1] == before:
                    time.sleep(0.0005)  # it really is mid-loop
                child.kill()
                child.join(5.0)
                assert not child.is_alive()
                job.abort.clear()
                t0 = time.monotonic()
                backend_mod.ShmLink(job, 0, None).abort.set()
                assert job.abort.is_set()
                assert time.monotonic() - t0 < 1.0
        finally:
            for ring in job.rings:
                ring.destroy()

    @pytest.mark.parametrize("kind", ["threads", "procs"])
    def test_watchdog_fires_on_all_blocked_and_no_progress(
        self, kind, monkeypatch
    ):
        """``strike_rule`` over two mailboxes' ``(blocked, delivered)``,
        read directly (threads) or through the shared status slots a
        procs delivery thread publishes them to."""
        monkeypatch.setattr(backend_mod, "_WATCHDOG_PERIOD", 0.05)
        boxes = [Mailbox(0), Mailbox(1)]
        status = multiprocessing.get_context("fork").RawArray("q", 4)

        def sample():
            if kind == "threads":
                return (sum(b.blocked for b in boxes),
                        sum(b.delivered for b in boxes))
            for r, box in enumerate(boxes):
                status[2 * r], status[2 * r + 1] = box.blocked, box.delivered
            slots = status[:]
            return sum(slots[0::2]), sum(slots[1::2])

        abort = threading.Event()
        pendings = [box.post_recv(1, 1 - r, 5) for r, box in enumerate(boxes)]

        def block(r):
            try:
                boxes[r].wait_for([pendings[r]], abort)
            except AbortError:
                pass

        ranks = [threading.Thread(target=block, args=(r,)) for r in (0, 1)]
        look = backend_mod.strike_rule()

        def looks(count, deliver=False):
            fired = []
            for _ in range(count):
                if deliver:  # an envelope nobody waits for: progress
                    boxes[1].deliver(Envelope(0, 1, 1, 7, None, 0, 0.0, 0))
                time.sleep(0.06)  # longer than the look period
                fired.append(look(2, *sample()))
            return fired

        try:
            # One rank blocked, the other still running: no report.
            ranks[0].start()
            while not boxes[0].blocked:
                time.sleep(0.001)
            assert not any(looks(10))
            # Both blocked, but envelopes still arrive: no report.
            ranks[1].start()
            while not boxes[1].blocked:
                time.sleep(0.001)
            assert not any(looks(10, deliver=True))
            # Nothing moves any more.  Looks sooner than the period do
            # not count; counted ones fire on the third strike.
            assert not any(look(2, *sample()) for _ in range(20))
            assert looks(3) == [False, False, True]
        finally:
            abort.set()
            for t in ranks:
                t.join(5.0)
        assert not any(t.is_alive() for t in ranks)
        assert sum(b.blocked for b in boxes) == 0

    @pytest.mark.parametrize("backend", ["threads", "procs", "sockets"])
    def test_deadlock_report_text_unchanged(self, backend):
        def main(comm):
            comm.recv(source=1 - comm.rank, tag=5 + comm.rank)

        rt = Runtime(nranks=2, backend=backend)
        with pytest.raises(DeadlockError):
            rt.run(main)
        assert rt.deadlock_report == (
            "deadlock detected; per-rank pending state:\n"
            "  rank 0: waiting_on=[(1, 5, 1)] unmatched_inbox=[]\n"
            "  rank 1: waiting_on=[(0, 6, 1)] unmatched_inbox=[]"
        )
