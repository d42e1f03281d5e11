"""The crystal-router exchange against the dict-shipping one it replaced.

``exchange_crystal`` routes typed records on a handle's first exchange,
keeps the ``CrystalPlan`` that route worked out and replays it for
every later exchange, whatever its dtype and field count;
``tests/crystal_oracle.py`` keeps the per-call routing-dict exchange.
Everything observable — values, virtual clocks, profile rows, the
message trace with every charged size — must be equal, not close.
"""

import numpy as np
import pytest

from repro.core import CMTBone, CMTBoneConfig
from repro.faults import FaultPlan
from repro.gs import (
    choose_method, gs_op, gs_op_begin, gs_op_finish, gs_op_many, gs_setup,
)
from repro.gs import crystal
from repro.gs.crystal import exchange_crystal
from repro.mesh import BoxMesh, Partition, continuous_numbering, dg_face_numbering
from repro.mpi import MAX, MIN, PROD, SUM, MPIError, Runtime
from repro.mpi import datatypes
from repro.mpi.datatypes import ReduceOp
from repro.mpi.errors import RankCrashError

from .crystal_oracle import crystal_is_the_oracle, exchange_crystal_oracle
from .test_field_batching import _observables as observables
from .test_gs_plan import same_bits, values_for
from .test_mpi_datatypes import counting_pickle

#: Rank count -> processor grid; 3, 5 and 6 fold onto a power of two.
GRIDS = {2: (2, 1, 1), 3: (3, 1, 1), 4: (2, 2, 1), 5: (5, 1, 1),
         6: (3, 2, 1), 8: (2, 2, 2)}
#: The continuous numbering shares ids among up to eight ranks, so the
#: final fold has repeated targets; the DG one shares each with one.
NUMBERINGS = {"dg": dg_face_numbering, "c0": continuous_numbering}
OPS = {"sum": SUM, "max": MAX, "min": MIN, "prod": PROD}
SITE = "crystalplan"
ROUNDS = 5


def partition(nranks):
    grid = GRIDS[nranks]
    return Partition(BoxMesh(tuple(2 * g for g in grid), n=3), grid)


def run_exchanges(exchange, nranks, numbering, op, dtypes, fault=None,
                  after_setup=None):
    """``ROUNDS`` exchanges of fresh random values per entry of ``dtypes``:
    a dtype, or ``(dtype, nf)`` for a fields-first packed block."""
    part = partition(nranks)

    def main(comm):
        handle = gs_setup(NUMBERINGS[numbering](part, comm.rank), comm)
        outs, marks = [], [comm.clock.now]
        for i, dtype in enumerate(dtypes):
            dtype, *nf = dtype if isinstance(dtype, tuple) else (dtype,)
            for r in range(ROUNDS):
                cond = values_for(
                    (*nf, handle.n_unique), dtype, 100 * i + 10 * r + comm.rank
                )
                keep = cond.copy()
                outs.append(exchange(handle, cond, op, SITE))
                assert same_bits(cond, keep)  # the input is the caller's
                marks.append(comm.clock.now)
                if after_setup is not None and i == r == 0:
                    after_setup(handle)
        return outs, (observables(comm), marks), handle

    plan = FaultPlan.parse(fault, seed=5) if fault else None
    rt = Runtime(nranks=nranks, fault_plan=plan, trace_messages=True)
    return rt.run(main), rt.trace.events()


def assert_same(got, want):
    (got, got_trace), (want, want_trace) = got, want
    for rank, (g, w) in enumerate(zip(got, want, strict=True)):
        assert all(same_bits(a, b) for a, b in zip(g[0], w[0], strict=True)), rank
        assert g[1] == w[1], f"rank {rank} clocks and profile rows"
    assert got_trace == want_trace


# -- (a) values, clocks, rows and the trace ------------------------------


class TestReplayEqualsPerCallExchange:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["f8", "i8"])
    @pytest.mark.parametrize("op", list(OPS))
    @pytest.mark.parametrize("numbering", list(NUMBERINGS))
    @pytest.mark.parametrize("nranks", list(GRIDS))
    def test_every_observable_matches(self, nranks, numbering, op, dtype):
        args = (nranks, numbering, OPS[op], [dtype])
        got = run_exchanges(exchange_crystal, *args)
        assert_same(got, run_exchanges(exchange_crystal_oracle, *args))
        plans = [h._derived["crystal"] for _, _, h in got[0]]
        if numbering == "c0" and min(GRIDS[nranks][:2]) > 1:  # shared edges
            assert any(len(p.rounds) > 1 for p in plans)  # repeated targets


# -- (b) faults -------------------------------------------------------------


class TestUnderFaults:
    FAULT = "drop:src=0,dst=1,nth=2;drop:p=0.2;degrade:src=2,dst=3,factor=4"

    @pytest.mark.parametrize("numbering", list(NUMBERINGS))
    @pytest.mark.parametrize("nranks", [4, 6])
    def test_drops_and_a_slow_link(self, nranks, numbering):
        args = (nranks, numbering, SUM, [np.float64])
        got = run_exchanges(exchange_crystal, *args, fault=self.FAULT)
        assert_same(
            got, run_exchanges(exchange_crystal_oracle, *args, fault=self.FAULT)
        )
        assert any(g[1][0][0][2] > 0 for g in got[0])  # the plan did drop

    def test_a_crash_mid_exchange_raises_what_the_oracle_raises(self):
        args = (4, "c0", SUM, [np.float64])
        clean, _ = run_exchanges(exchange_crystal_oracle, *args)
        # Virtual time is deterministic: rank 2 dies inside the 4th
        # exchange, a replay.
        marks = clean[2][1][1]
        when = 0.5 * (marks[3] + marks[4])
        errors = []
        for exchange in (exchange_crystal, exchange_crystal_oracle):
            with pytest.raises(RankCrashError) as info:
                run_exchanges(
                    exchange, *args, fault=f"crash:rank=2,time={when!r}"
                )
            errors.append((str(info.value), info.value.rank, info.value.vtime))
        assert errors[0] == errors[1] and errors[0][1] == 2


# -- (c) one plan per handle ---------------------------------------------------


def test_one_recording_serves_every_dtype_and_row_width(monkeypatch):
    recorded = []
    run = crystal._run

    def counting_run(plan, site, rows, dest=None, ids=None):
        if dest is not None:
            recorded.append(plan.comm.rank)
        return run(plan, site, rows, dest, ids)

    monkeypatch.setattr(crystal, "_run", counting_run)
    kinds = [np.float64, np.int64, (np.float64, 5), np.float64]
    got = run_exchanges(exchange_crystal, 6, "c0", SUM, kinds)
    assert sorted(recorded) == list(range(6))
    for outs, _, handle in got[0]:
        assert [(o.dtype, o.shape[:-1]) for o in outs[::ROUNDS]] == [
            (np.float64, ()), (np.int64, ()), (np.float64, (5,)),
            (np.float64, ()),
        ]
        assert [k for k in handle._derived if "crystal" in str(k)] == ["crystal"]
    recorded.clear()
    assert_same(got, run_exchanges(exchange_crystal_oracle, 6, "c0", SUM, kinds))
    assert recorded == []


# -- (d) what no exchange calls, the recording one included --------------------


class _CountingUfunc:
    """``np.add`` whose ``at`` counts (a ufunc's attributes are read-only)."""

    def __init__(self):
        self.at_calls = 0

    def __call__(self, *args, **kw):
        return np.add(*args, **kw)

    def at(self, *args):
        self.at_calls += 1
        np.add.at(*args)


def test_no_pickle_and_no_ufunc_at(monkeypatch):
    dumps = []
    part = partition(8)

    def main(comm):
        handle = gs_setup(continuous_numbering(part, comm.rank), comm)
        ufunc = _CountingUfunc()
        op = ReduceOp("MPI_SUM", SUM.fn, ufunc)
        cond = values_for((handle.n_unique,), np.float64, comm.rank)
        want = exchange_crystal_oracle(handle, cond, SUM)
        comm.barrier()
        if comm.rank == 0:
            monkeypatch.setattr(datatypes, "pickle", counting_pickle(dumps))
        comm.barrier()
        got = [exchange_crystal(handle, cond, op) for _ in range(4)]
        comm.barrier()
        assert all(same_bits(g, want) for g in got)
        return ufunc.at_calls

    assert Runtime(nranks=8).run(main) == [0] * 8
    assert dumps == []


# -- (e) a desynchronised partner ---------------------------------------------


def test_a_wrong_length_arrival_raises_instead_of_folding_garbage():
    def truncate(handle):
        if handle.comm.rank == 0:
            plan = handle._derived["crystal"]
            at = next(i for i, s in enumerate(plan.steps) if len(s[5]))
            step = plan.steps[at]
            plan.steps[at] = (*step[:5], step[5][:-1], *step[6:])

    with pytest.raises(MPIError, match=r"crystal replay on rank \d, stage \d+: "
                                       r"expected (\d+) rows from rank 0"):
        run_exchanges(exchange_crystal, 4, "dg", SUM, [np.float64],
                      after_setup=truncate)


# -- (f) the entry points built on METHODS["crystal"] --------------------------


def _under_both(main, nranks, fault=None):
    def run():
        plan = FaultPlan.parse(fault, seed=7) if fault else None
        rt = Runtime(nranks=nranks, fault_plan=plan, trace_messages=True)
        return rt.run(main), rt.trace.events()

    got = run()
    with crystal_is_the_oracle():
        want = run()
    return got, want


class TestEntryPoints:
    def test_stack_split_phase_and_autotune(self):
        part = partition(8)

        def main(comm):
            gids = continuous_numbering(part, comm.rank)
            handle = gs_setup(gids, comm)
            timings = choose_method(handle)
            x = values_for((5,) + gids.shape, np.float64, comm.rank)
            outs = [gs_op(handle, x, op=MAX, method="crystal", site=SITE)]
            for f in x[:2]:
                flight = gs_op_begin(handle, f, method="crystal", site=SITE)
                comm.compute(seconds=2e-6)
                outs.append(gs_op_finish(flight))
            table = {m: (t.avg, t.mn, t.mx) for m, t in timings.items()}
            return outs, (observables(comm), table), handle

        got, want = _under_both(main, 8)
        assert_same(got, want)
        for (_, _, mine), (_, _, theirs) in zip(got[0], want[0]):
            assert "crystal" in mine._derived
            assert "crystal" not in theirs._derived

    @pytest.mark.parametrize("nranks", [3, 8])
    def test_gs_op_many_packs_fields_into_the_rows(self, nranks):
        part = partition(nranks)

        def main(comm):
            gids = continuous_numbering(part, comm.rank)
            handle = gs_setup(gids, comm)
            x = values_for((5,) + gids.shape, np.float64, comm.rank)
            outs = [
                np.stack(gs_op_many(handle, list(f), op=op, method="crystal",
                                    site=SITE))
                for f, op in ((x, SUM), (x[:2], MAX), (x.astype(np.int64), MIN))
            ]
            return outs, observables(comm), handle

        got, want = _under_both(main, nranks)
        assert_same(got, want)

    @pytest.mark.parametrize("fault", [None, "drop:p=0.1"])
    def test_a_rebalance_records_anew_on_the_new_handle(self, fault):
        cfg = CMTBoneConfig(
            n=5, local_shape=(2, 2, 2), nsteps=4, gs_method="crystal",
            compute_imbalance=0.8, lb_mode="auto", lb_threshold=1.02,
            lb_min_interval=1,
        )

        def main(comm):
            app = CMTBone(comm, cfg)
            before = app.handle
            res = app.run()
            assert res.lb_rebalances >= 1 and app.handle is not before
            return ([app.u, app._faces],
                    (observables(comm), res.monitor_values), app.handle)

        got, want = _under_both(main, 4, fault)
        assert_same(got, want)
        assert all("crystal" in h._derived for _, _, h in got[0])
