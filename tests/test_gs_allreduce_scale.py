"""The allreduce method's one data path, and the shadow region under it.

A dense-sized allreduce of a value-free :class:`DenseVector` carries the
modelled cost; the handle's pairwise exchange in ``comm.shadow()``
carries the values.  Checked here: the values are pairwise's, the cost
is the dense vector's, and the shadow region leaves no trace — against
the exact sparse-merge allreduce it replaced (``tests/allreduce_oracle.py``)
on every observable.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.gs import gs_op, gs_op_many, gs_setup
from repro.mesh import BoxMesh, Partition, continuous_numbering, dg_face_numbering
from repro.mpi import MAX, MIN, SUM, Runtime, datatypes
from repro.mpi.errors import RankCrashError

from .allreduce_oracle import allreduce_is_the_oracle
from .test_crystal_plan import partition
from .test_field_batching import _observables as observables
from .test_gs_plan import same_bits, values_for
from .test_mpi_datatypes import counting_pickle

MESH = BoxMesh(shape=(4, 2, 2), n=4)
PART = Partition(MESH, proc_shape=(2, 2, 1))


def run_methods():
    """Per rank: allreduce and pairwise results of one input, and the
    virtual seconds of one more ``gs_op`` by each."""

    def main(comm):
        h = gs_setup(dg_face_numbering(PART, comm.rank), comm)
        rng = np.random.default_rng(11 + comm.rank)
        u = rng.standard_normal(h.shape)
        out = gs_op(h, u, op=SUM, method="allreduce")
        ref = gs_op(h, u, op=SUM, method="pairwise")
        t0 = comm.clock.now
        gs_op(h, u, op=SUM, method="allreduce")
        t_all = comm.clock.now - t0
        t0 = comm.clock.now
        gs_op(h, u, op=SUM, method="pairwise")
        t_pw = comm.clock.now - t0
        return out, ref, t_all, t_pw

    return Runtime(nranks=4).run(main)


def drop_log(rt):
    """The job's drop episodes by link and sequence number (ranks log
    them concurrently), or ``None`` without a fault plan."""
    if rt.faults is None:
        return None
    return sorted(rt.faults.drop_log, key=lambda d: (d.src, d.dst, d.seq))


class TestShadowPath:
    def test_values_are_pairwise_values(self):
        assert all(same_bits(out, ref) for out, ref, _, _ in run_methods())

    def test_same_modelled_time_as_the_exact_merge(self):
        got = run_methods()
        with allreduce_is_the_oracle():
            want = run_methods()
        assert [g[2] for g in got] == [w[2] for w in want]

    def test_allreduce_costs_more_than_pairwise(self):
        for _, _, t_all, t_pw in run_methods():
            assert t_all > t_pw

    def test_shadow_traffic_not_profiled(self):
        def main(comm):
            h = gs_setup(dg_face_numbering(PART, comm.rank), comm)
            gs_op(h, np.ones(h.shape), op=SUM, method="allreduce")

        rt = Runtime(nranks=4)
        rt.run(main)
        rows = rt.job_profile().aggregates()
        # The shadow pairwise isend/wait must NOT appear in the profile;
        # the allreduce itself must.
        sites = {(r.op, r.site) for r in rows}
        assert not any(
            op in ("MPI_Isend", "MPI_Wait") and "pairwise" in site
            for op, site in sites
        )
        assert any(op == "MPI_Allreduce" for op, _ in sites)

    def test_a_gs_op_after_setup_pickles_nothing(self, monkeypatch):
        dumps = []

        def main(comm):
            h = gs_setup(continuous_numbering(PART, comm.rank), comm)
            u = np.ones(h.shape)
            comm.barrier()
            if comm.rank == 0:
                monkeypatch.setattr(datatypes, "pickle", counting_pickle(dumps))
            comm.barrier()
            for _ in range(3):
                gs_op(h, u, op=SUM, method="allreduce")
            comm.barrier()

        Runtime(nranks=4).run(main)
        assert dumps == []


class TestShadowRegion:
    def test_shadow_discards_time_and_profile(self):
        def main(comm):
            other = 1 - comm.rank
            t0 = comm.clock.now
            with comm.shadow():
                req = comm.irecv(source=other, tag=1)
                comm.send(np.zeros(1000), dest=other, tag=1)
                req.wait()
            return comm.clock.now - t0

        res = Runtime(nranks=2).run(main)
        assert res == [0.0, 0.0]

    def test_shadow_preserves_data(self):
        def main(comm):
            other = 1 - comm.rank
            with comm.shadow():
                req = comm.irecv(source=other, tag=2)
                comm.send(comm.rank * 11, dest=other, tag=2)
                return req.wait()

        assert Runtime(nranks=2).run(main) == [11, 0]

    def test_clock_restored_after_shadow(self):
        def main(comm):
            comm.compute(seconds=1.0)
            with comm.shadow():
                comm.compute(seconds=99.0)
            comm.compute(seconds=0.5)
            return comm.clock.now

        assert Runtime(nranks=1).run(main) == [1.5]

    @staticmethod
    def ping_pong_job(shadow_rounds, fault=None):
        """Eight exchanges of a 2-rank job under ``fault``, after
        ``shadow_rounds`` more in ``comm.shadow()``."""

        def exchange(comm, tag):
            other = 1 - comm.rank
            req = comm.irecv(source=other, tag=tag)
            comm.send(np.full(64, comm.rank, dtype=np.float64), dest=other,
                      tag=tag)
            return req.wait()

        def main(comm):
            if shadow_rounds:
                with comm.shadow():
                    for tag in range(shadow_rounds):
                        exchange(comm, tag)
            got = [exchange(comm, 100 + tag) for tag in range(8)]
            return got, observables(comm)

        plan = FaultPlan.parse(fault, seed=3) if fault else None
        rt = Runtime(nranks=2, trace_messages=True, fault_plan=plan)
        out = rt.run(main)
        return out, rt.trace.events(), drop_log(rt)

    def test_shadow_leaves_no_trace_seq_or_drop(self):
        """Trace rows (``seq`` included), the drop log and every later
        drop decision are those of the same job without the region."""
        got, got_trace, got_drops = self.ping_pong_job(4, "drop:p=0.5")
        want, want_trace, want_drops = self.ping_pong_job(0, "drop:p=0.5")
        for (g_vals, g_obs), (w_vals, w_obs) in zip(got, want, strict=True):
            assert all(same_bits(a, b) for a, b in zip(g_vals, w_vals))
            assert g_obs == w_obs
        assert got_trace == want_trace and len(want_trace) == 16
        assert got_drops == want_drops and want_drops  # the plan did drop

    def test_shadow_fires_no_time_crash(self):
        """A crash due at a virtual time only the scratch clock reaches
        stays unfired: the job ends as if the region never ran."""
        clean, _, _ = self.ping_pong_job(0)
        end = clean[0][1][0][0]
        crash = f"crash:rank=0,time={1.5 * end!r}"
        got, _, _ = self.ping_pong_job(16, crash)
        assert [g[1] for g in got] == [c[1] for c in clean]
        with pytest.raises(RankCrashError):  # the real clock would fire it
            self.ping_pong_job(0, f"crash:rank=0,time={0.5 * end!r}")


# -- the exact sparse merge as the oracle ----------------------------------

NUMBERINGS = {"dg": dg_face_numbering, "c0": continuous_numbering}
#: Every (op, dtype) one parity job exchanges.
CASES = [(op, dtype) for op in (SUM, MIN, MAX)
         for dtype in (np.float64, np.int64)]
MODES = {
    "clean": dict(),
    "drops": dict(fault_plan="drop:src=0,dst=1,nth=2;drop:p=0.2",
                  trace_messages=True),
    "traced": dict(trace_messages=True),
}


def parity_job(nranks, numbering, mode):
    """Per entry of ``CASES``: ``gs_op`` of a 2-field stack and
    ``gs_op_many`` of the same two fields by the allreduce method, then
    ``gs_op`` of the stack by the pairwise method."""
    part = partition(nranks)

    def main(comm):
        handle = gs_setup(NUMBERINGS[numbering](part, comm.rank), comm)
        outs = []
        for i, (op, dtype) in enumerate(CASES):
            x = values_for((2,) + handle.shape, dtype, 10 * i + comm.rank)
            outs.append((
                gs_op(handle, x, op=op, method="allreduce"),
                np.stack(gs_op_many(handle, list(x), op=op,
                                    method="allreduce")),
                gs_op(handle, x, op=op, method="pairwise"),
            ))
        return outs, observables(comm)

    kw = dict(MODES[mode])
    if "fault_plan" in kw:
        kw["fault_plan"] = FaultPlan.parse(kw["fault_plan"], seed=5)
    rt = Runtime(nranks=nranks, **kw)
    results = rt.run(main)
    trace = rt.trace.events() if rt.trace is not None else None
    return results, trace, drop_log(rt)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("numbering", list(NUMBERINGS))
@pytest.mark.parametrize("nranks", [2, 3, 4, 8])
def test_every_observable_matches_the_exact_merge(nranks, numbering, mode):
    got, got_trace, got_drops = parity_job(nranks, numbering, mode)
    with allreduce_is_the_oracle():
        want, want_trace, want_drops = parity_job(nranks, numbering, mode)
    assert got_trace == want_trace
    assert got_drops == want_drops
    if mode == "drops":
        assert want_drops
    for (g_outs, g_obs), (w_outs, w_obs) in zip(got, want, strict=True):
        assert g_obs == w_obs, "clocks and profile rows"
        for (op, dtype), (g_op, g_many, pw), (w_op, w_many, _) in zip(
            CASES, g_outs, w_outs, strict=True
        ):
            case = (op.name, dtype.__name__)
            assert same_bits(g_op, pw) and same_bits(g_many, pw), case
            if numbering == "c0" and op is SUM and dtype is np.float64:
                # A float SUM over ids shared by more than two ranks
                # folds in pairwise order, not the merge tree's.
                for g, w in ((g_op, w_op), (g_many, w_many)):
                    np.testing.assert_allclose(
                        g, w, rtol=0, atol=1e-13 * np.abs(w).max()
                    )
            else:
                assert same_bits(g_op, w_op), case
                assert same_bits(g_many, w_many), case
