"""Field-batched step pipelines against the per-variable ones.

``CMTBone`` and ``CMTSolver`` run each phase once per block of fields
(``repro.kernels.workspace.field_blocks``) and ``gs_op`` takes a stack
of fields; ``tests/field_oracles.py`` keeps the one-call-per-variable
pipelines they replaced.  Everything observable — arrays, monitor
values, clocks, profile rows, the message trace — must be equal, not
close: batching regroups calls, it does not reorder arithmetic.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import CMTBone, CMTBoneConfig
from repro.faults import FaultPlan
from repro.gs import gs_op, gs_setup
from repro.kernels import BLOCK_BYTES, derivative_matrix, field_blocks
from repro.kir import library
from repro.kir.lower import LOWERINGS, LoweredKernel, NumpyLowering
from repro.mesh import BoxMesh, Partition, continuous_numbering
from repro.mpi import MAX, MIN, PROD, SUM, Runtime
from repro.solver import (
    CMTSolver,
    SolverConfig,
    ViscousModel,
    flux_divergence_multi,
    from_primitives,
)

from .field_oracles import PerFieldCMTBone, PerFieldCMTSolver
from .test_gs_plan import gids_from, same_bits, values_for

OPS = (SUM, MAX, MIN, PROD)
DTYPES = (np.float64, np.int64)
GS_METHODS = ("pairwise", "crystal", "allreduce")


def _observables(comm):
    clock = comm.clock
    rows = [
        (r.op, r.site, r.count, r.vtime, r.bytes_total)
        for r in comm.profile.records.values()
    ]
    return (clock.now, clock.comm_time, clock.retry_time,
            clock.hidden_comm_time), rows


# -- (a) stacked gather-scatter ------------------------------------------


def check_stacks(gids, nfields, seed):
    """Stacked condense/scatter/gs_op vs one call per field, one rank."""

    def main(comm):
        h = gs_setup(gids, comm)
        for dtype in DTYPES:
            x = values_for((nfields,) + gids.shape, dtype, seed)
            for op in OPS:
                want_c = np.stack([h.condense(f, op) for f in x])
                want = np.stack([gs_op(h, f, op=op) for f in x])
                got_c = h.condense(x, op)
                assert same_bits(got_c, want_c), (op.name, dtype)
                assert same_bits(
                    h.scatter(got_c), np.stack([h.scatter(c) for c in want_c])
                )
                assert same_bits(gs_op(h, x, op=op), want)
                aliased = x.copy()
                assert gs_op(h, aliased, op=op, out=aliased) is aliased
                assert same_bits(aliased, want)
                # two leading axes are a stack of stacks
                twice = np.stack([x, x[::-1]])
                assert same_bits(
                    gs_op(h, twice, op=op), np.stack([want, want[::-1]])
                )
        return True

    assert Runtime(nranks=1).run(main) == [True]


class TestStackedGatherScatter:
    @settings(max_examples=30, deadline=None)
    @given(
        multiplicities=st.lists(st.integers(1, 5), max_size=30),
        nfields=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @example(multiplicities=[], nfields=3, seed=0)          # no ids at all
    @example(multiplicities=[1] * 9, nfields=2, seed=1)     # no duplicates
    @example(multiplicities=[3] * 9, nfields=5, seed=2)     # all duplicated
    def test_stack_equals_per_field_calls(self, multiplicities, nfields, seed):
        check_stacks(gids_from(multiplicities, seed), nfields, seed)

    def test_rejects_a_trailing_shape_that_is_not_the_handles(self):
        def main(comm):
            h = gs_setup(np.arange(12).reshape(3, 4) % 5, comm)
            for bad in ((4, 3), (2, 3, 5), (4,), (12,)):
                with pytest.raises(ValueError, match="lacks the handle shape"):
                    h.condense(np.zeros(bad), SUM)
                with pytest.raises(ValueError, match="lacks the handle shape"):
                    gs_op(h, np.zeros(bad))
            with pytest.raises(ValueError, match="condensed shape"):
                h.scatter(np.zeros((2, h.n_unique + 1)))
            with pytest.raises(ValueError, match="gs out must be"):
                h.scatter(np.zeros((2, h.n_unique)), out=np.zeros((3, 4)))
            return True

        assert Runtime(nranks=1).run(main) == [True]

    def test_a_stack_is_not_pickled_with_the_handle(self):
        import copy

        def main(comm):
            h = gs_setup(np.arange(6) % 3, comm)
            h.condense(np.zeros((2, 6)), SUM)
            assert h._derived["stacks"]
            twin = copy.copy(h)  # what the service's setup artifact keeps
            assert twin._derived == {}
            assert same_bits(
                twin.condense(np.ones((2, 6)), SUM), np.full((2, 3), 2.0)
            )
            return "_derived" not in h.__getstate__()

        assert Runtime(nranks=1).run(main) == [True]

    @pytest.mark.parametrize("fault", [None, "drop:p=0.2;degrade:src=2,dst=3,factor=4"])
    @pytest.mark.parametrize("method", GS_METHODS)
    def test_across_ranks_every_observable_matches(self, method, fault):
        """Shared edges and corners, 4 ranks: a stacked ``gs_op`` is the
        per-field calls — exchanges, charges and records included."""
        part = Partition(BoxMesh((4, 2, 2), n=3), (2, 2, 1))

        def run(stacked):
            def main(comm):
                gids = continuous_numbering(part, comm.rank)
                h = gs_setup(gids, comm)
                outs = []
                for dtype in DTYPES:
                    x = values_for((3,) + gids.shape, dtype, 5 + comm.rank)
                    for op in (SUM, MAX):
                        if stacked:
                            outs.append(gs_op(h, x, op=op, method=method,
                                              site="t"))
                        else:
                            outs.append(np.stack([
                                gs_op(h, f, op=op, method=method, site="t")
                                for f in x
                            ]))
                return outs, _observables(comm)

            plan = FaultPlan.parse(fault, seed=3) if fault else None
            rt = Runtime(nranks=4, fault_plan=plan, trace_messages=True)
            return rt.run(main), rt.trace.events()

        got, got_trace = run(True)
        want, want_trace = run(False)
        for (g_out, g_obs), (w_out, w_obs) in zip(got, want, strict=True):
            assert all(same_bits(a, b) for a, b in zip(g_out, w_out, strict=True))
            assert g_obs == w_obs
        assert got_trace == want_trace


# -- (b) the mini-app ------------------------------------------------------

SCHEDULES = {
    "blocking": {},
    "overlap": {"overlap": True},
    "pack": {"pack_fields": True},
    "extra_fields": {"exchange_fields": 7},  # neq + 2: a second, short pass
    "lb": {
        "compute_imbalance": 0.8, "lb_mode": "auto", "lb_threshold": 1.02,
        "lb_min_interval": 1,
    },
}
#: Per rank count, a local brick whose N=16 field is a block by itself
#: on one rank and a quarter of one on many (so blocks are ragged there).
LOCAL = {1: (4, 4, 2), 2: (2, 2, 2), 8: (2, 2, 2)}


def _run_cmtbone(cls, nranks, cfg, fault=None):
    def main(comm):
        app = cls(comm, cfg)
        res = app.run()
        return (app.u, app._faces, res.monitor_values, res.lb_rebalances,
                _observables(comm))

    plan = FaultPlan.parse(fault, seed=7) if fault else None
    rt = Runtime(nranks=nranks, fault_plan=plan, trace_messages=True)
    return rt.run(main), rt.trace.events()


def _assert_same_run(got, want):
    (got, got_trace), (want, want_trace) = got, want
    for rank, (g, w) in enumerate(zip(got, want, strict=True)):
        assert same_bits(g[0], w[0]), f"rank {rank} u"
        assert same_bits(g[1], w[1]), f"rank {rank} faces"
        assert g[2:] == w[2:], f"rank {rank} monitor/clocks/profile rows"
    assert got_trace == want_trace


class TestCMTBoneMatchesPerField:
    @pytest.mark.parametrize("schedule", list(SCHEDULES))
    @pytest.mark.parametrize("method", GS_METHODS)
    @pytest.mark.parametrize("n", [5, 8, 16])
    @pytest.mark.parametrize("nranks", [1, 2, 8])
    def test_every_observable_matches(self, nranks, n, method, schedule):
        cfg = CMTBoneConfig(
            n=n, local_shape=LOCAL[nranks], gs_method=method,
            nsteps=3 if schedule == "lb" else 2, **SCHEDULES[schedule],
        )
        got = _run_cmtbone(CMTBone, nranks, cfg)
        _assert_same_run(got, _run_cmtbone(PerFieldCMTBone, nranks, cfg))
        if schedule == "lb" and nranks > 1:
            assert all(r[3] >= 1 for r in got[0])  # prices were re-derived

    @pytest.mark.parametrize("exchange_fields", [2, 11])  # < neq, > 2 neq
    def test_fewer_and_many_more_exchanged_fields(self, exchange_fields):
        cfg = CMTBoneConfig(
            n=5, local_shape=(2, 2, 2), nsteps=2, gs_method="pairwise",
            exchange_fields=exchange_fields,
        )
        got = _run_cmtbone(CMTBone, 2, cfg)
        _assert_same_run(got, _run_cmtbone(PerFieldCMTBone, 2, cfg))

    @pytest.mark.parametrize("schedule", ["blocking", "overlap"])
    def test_under_drops_and_a_slow_link(self, schedule):
        cfg = CMTBoneConfig(
            n=5, local_shape=(2, 2, 2), nsteps=3, gs_method="pairwise",
            **SCHEDULES[schedule],
        )
        fault = "drop:src=0,dst=1,nth=2;drop:p=0.1;degrade:src=2,dst=3,factor=4"
        got = _run_cmtbone(CMTBone, 8, cfg, fault)
        _assert_same_run(got, _run_cmtbone(PerFieldCMTBone, 8, cfg, fault))
        assert any(r[4][0][2] > 0 for r in got[0])  # the plan did drop


# -- (c) the solver --------------------------------------------------------


def _smooth_state(part, rank):
    mesh = part.mesh
    x, y, z = np.stack(
        [mesh.element_nodes(ec) for ec in part.local_elements(rank)], axis=1
    )
    two_pi = 2.0 * np.pi
    rho = 1.0 + 0.2 * np.sin(two_pi * x) * np.cos(two_pi * y)
    vel = 0.3 * np.stack([np.cos(two_pi * z), np.sin(two_pi * x), 0.1 + 0 * x])
    return from_primitives(rho, vel, 1.0 + 0.1 * np.cos(two_pi * (y + z)))


def _run_solver(cls, part, **config):
    def main(comm):
        solver = cls(comm, part, config=SolverConfig(
            gs_method="pairwise", **config
        ))
        state = _smooth_state(part, comm.rank)
        rhs = solver.rhs(state.u)
        stepped = solver.step(state, 1e-4).u
        return rhs, stepped, _observables(comm)

    rt = Runtime(nranks=part.nranks, trace_messages=True)
    return rt.run(main), rt.trace.events()


class TestSolverMatchesPerComponent:
    @pytest.mark.parametrize("viscous", [False, True])
    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_rhs_and_step_bitwise(self, n, overlap, dealias, viscous):
        part = Partition(BoxMesh((4, 2, 2), n=n), (2, 1, 1))
        config = dict(
            overlap=overlap, dealias=dealias,
            viscosity=ViscousModel(mu=1e-3) if viscous else None,
        )
        got, got_trace = _run_solver(CMTSolver, part, **config)
        want, want_trace = _run_solver(
            PerFieldCMTSolver, part, **config
        )
        for rank, (g, w) in enumerate(zip(got, want, strict=True)):
            assert same_bits(g[0], w[0]), f"rank {rank} rhs"
            assert same_bits(g[1], w[1]), f"rank {rank} step"
            assert g[2] == w[2], f"rank {rank} clocks/profile rows"
        assert got_trace == want_trace

    def test_divergence_scratch_is_one_block(self):
        fx = np.random.default_rng(0).standard_normal((5, 4, 5, 5, 5))
        dmat = np.asarray(derivative_matrix(5))
        jac = (1.0, 2.0, 3.0)
        want = flux_divergence_multi(fx, fx, fx, dmat, jac)
        block = fx[field_blocks(fx)[0]]
        out = np.empty_like(fx)
        got = flux_divergence_multi(
            fx, fx, fx, dmat, jac, out=out, work=np.empty_like(block)
        )
        assert got is out and same_bits(got, want)
        with pytest.raises(ValueError, match="not one block"):
            flux_divergence_multi(
                fx, fx, fx, dmat, jac, work=np.empty_like(fx[0])
            )
        with pytest.raises(ValueError, match="C-contiguous"):
            flux_divergence_multi(
                fx, fx, fx, dmat, jac, out=np.empty((5, 4, 5, 5, 10))[..., ::2]
            )


# -- (d) the block rule ------------------------------------------------------


class CountingLowering(NumpyLowering):
    """The numpy lowering, counting calls (and element batches) per program."""

    name = "counting"
    calls: list = []

    def lower(self, sched):
        kernel = super().lower(sched)
        program, fn = kernel.program, kernel.fn

        def counted(u, *args, **kwargs):
            CountingLowering.calls.append((program, u.shape[0]))
            return fn(u, *args, **kwargs)

        return LoweredKernel(
            kernel.program, kernel.schedule, self.name, counted, kernel.source
        )


@pytest.fixture
def grad_calls(monkeypatch):
    """``grad`` dispatches of the mini-app, as ``nel`` per call."""
    monkeypatch.setitem(LOWERINGS, "counting", CountingLowering)
    monkeypatch.setattr(
        library, "_DEFAULT", library.KernelLibrary(lowering="counting")
    )
    monkeypatch.setattr(CountingLowering, "calls", [])

    def run(n, local_shape, **cfg):
        CountingLowering.calls.clear()
        cfg = CMTBoneConfig(n=n, local_shape=local_shape, nsteps=1, **cfg)
        Runtime(nranks=1).run(lambda comm: CMTBone(comm, cfg).run() and None)
        return [nel for program, nel in CountingLowering.calls
                if program == "grad"]

    return run


class TestBlockRule:
    def test_small_fields_are_one_dispatch_per_stage(self, grad_calls):
        assert grad_calls(5, (2, 2, 2)) == [5 * 8] * 3

    def test_a_large_field_is_its_own_block(self, grad_calls):
        assert 64 * 16**3 * 8 >= BLOCK_BYTES
        assert grad_calls(16, (4, 4, 4), neq=2) == [64] * 2 * 3

    def test_a_ragged_last_block(self, grad_calls):
        # N=8, 64 elements: a 256 KiB field, four to a block, five fields
        assert grad_calls(8, (4, 4, 4)) == [4 * 64, 64] * 3

    @pytest.mark.parametrize("nbytes, nfields, want", [
        (1, 5, [(0, 5)]),
        (BLOCK_BYTES // 4, 5, [(0, 4), (4, 5)]),
        (BLOCK_BYTES // 4 + 8, 5, [(0, 3), (3, 5)]),
        (BLOCK_BYTES, 3, [(0, 1), (1, 2), (2, 3)]),
        (4 * BLOCK_BYTES, 2, [(0, 1), (1, 2)]),
        (0, 3, [(0, 3)]),
        (8, 0, []),
    ])
    def test_blocks_cover_the_stack_in_order(self, nbytes, nfields, want):
        stack = np.empty((nfields, nbytes // 8))
        got = [(b.start, min(b.stop, nfields)) for b in field_blocks(stack)]
        assert got == want
