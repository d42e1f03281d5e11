"""The compiled gather-scatter plan against a sort + ``reduceat`` oracle.

The oracle below is the local pass ``repro.gs`` used before it compiled
a plan at ``gs_setup``: permute the data so equal ids are contiguous,
``ufunc.reduceat`` over the segments, and scatter back with one fancy
index.  The plan must reproduce it bit for bit.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.nekbone import Nekbone, NekboneConfig
from repro.gs import gs_op, gs_op_begin, gs_op_finish, gs_op_many, gs_setup
from repro.gs.handle import PairPlan
from repro.gs.ops import METHODS
from repro.lb import sfc_partition
from repro.mesh import (
    BoxMesh,
    Partition,
    continuous_numbering,
    dg_face_numbering,
)
from repro.mpi import MAX, MIN, PROD, SUM, Runtime

OPS = (SUM, MAX, MIN, PROD)
DTYPES = (np.float64, np.int64)


# -- the oracle ---------------------------------------------------------


def oracle_condense(gids, x, op):
    flat = gids.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_ids = flat[order]
    starts = np.nonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )[0] if flat.size else np.empty(0, dtype=np.intp)
    return op.ufunc.reduceat(x.reshape(-1)[order], starts)


def oracle_scatter(gids, condensed):
    _uids, inverse = np.unique(gids.reshape(-1), return_inverse=True)
    return condensed[inverse.reshape(-1)].reshape(gids.shape)


def oracle_gs_op(handle, gids, u, op, method="pairwise"):
    """``gs_op`` with the oracle's local passes around the real exchange."""
    condensed = oracle_condense(gids, u, op)
    if handle.comm.size > 1:
        condensed = METHODS[method](handle, condensed, op)
    return oracle_scatter(gids, condensed)


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


# -- generated inputs ---------------------------------------------------


def gids_from(multiplicities, seed):
    """Shuffled ids, the i-th distinct id repeated ``multiplicities[i]``."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10 * len(multiplicities) + 1, size=len(multiplicities),
                     replace=False)
    gids = np.repeat(ids, multiplicities).astype(np.int64)
    rng.shuffle(gids)
    return gids


def values_for(shape, dtype, seed):
    """Order-sensitive data: float sums round differently per fold order."""
    rng = np.random.default_rng(seed + 1)
    if dtype is np.int64:
        return rng.integers(-9, 10, size=shape)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)


def check_everything(gids, seed):
    """All plan entry points vs the oracle, every op and dtype, one rank."""

    def main(comm):
        h = gs_setup(gids, comm)
        for dtype in DTYPES:
            x = values_for(gids.shape, dtype, seed)
            y = values_for(gids.shape, dtype, seed + 7)
            for op in OPS:
                want_c = oracle_condense(gids, x, op)
                want = oracle_scatter(gids, want_c)
                got_c = h.condense(x, op)
                assert same_bits(got_c, want_c), (op.name, dtype)
                assert same_bits(h.scatter(got_c), want)
                assert same_bits(gs_op(h, x, op=op), want)
                out = np.full_like(x, 99)
                assert gs_op(h, x, op=op, out=out) is out
                assert same_bits(out, want)
                aliased = x.copy()
                assert gs_op(h, aliased, op=op, out=aliased) is aliased
                assert same_bits(aliased, want)
                want_y = oracle_gs_op(h, gids, y, op)
                many = gs_op_many(h, [x, y], op=op)
                assert same_bits(many[0], want) and same_bits(many[1], want_y)
                fields = [x.copy(), y.copy()]
                inplace = gs_op_many(h, fields, op=op, out=fields)
                assert inplace[0] is fields[0] and inplace[1] is fields[1]
                assert same_bits(fields[0], want)
                assert same_bits(fields[1], want_y)
        return True

    assert Runtime(nranks=1).run(main) == [True]


class TestPlanMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        multiplicities=st.lists(st.integers(1, 5), max_size=40),
        seed=st.integers(0, 2**16),
    )
    @example(multiplicities=[], seed=0)            # empty
    @example(multiplicities=[1] * 17, seed=1)      # all-singleton
    @example(multiplicities=[2] * 17, seed=2)      # all-paired
    @example(multiplicities=[5], seed=3)           # one id everywhere
    @example(multiplicities=[4] * 9, seed=4)       # every round is full
    @example(multiplicities=[1, 3, 5, 2, 5], seed=5)
    def test_random_multiplicities(self, multiplicities, seed):
        check_everything(gids_from(multiplicities, seed), seed)

    def test_two_dimensional_shape(self):
        gids = gids_from([3, 1, 2, 2, 4], seed=11).reshape(3, 4)
        check_everything(gids, seed=11)

    def test_eight_copies_is_the_bitwise_limit(self):
        """A vertex of a hex mesh has at most eight local copies."""
        check_everything(gids_from([8, 8, 7, 1], seed=8), seed=8)

    def test_beyond_eight_copies_float_sum_is_sequential(self):
        """numpy adds nine or more floats pairwise; the plan does not.

        Every other (op, dtype) stays bitwise; the float sum agrees to
        rounding.
        """
        gids = gids_from([12, 2, 30], seed=9)

        def main(comm):
            h = gs_setup(gids, comm)
            x = values_for(gids.shape, np.float64, 9)
            xi = values_for(gids.shape, np.int64, 9)
            for data, op in ((x, MAX), (x, MIN), (x, PROD), (xi, SUM)):
                want = oracle_condense(gids, data, op)
                assert same_bits(h.condense(data, op), want)
            np.testing.assert_allclose(
                h.condense(x, SUM), oracle_condense(gids, x, SUM),
                rtol=1e-12, atol=1e-9,
            )
            return True

        assert Runtime(nranks=1).run(main) == [True]

    @pytest.mark.parametrize("method", ["pairwise", "crystal", "allreduce"])
    @pytest.mark.parametrize("numbering", [dg_face_numbering,
                                           continuous_numbering])
    def test_multirank_matches_oracle(self, method, numbering):
        """Across ranks too: same exchange, oracle local passes."""
        part = Partition(BoxMesh(shape=(4, 2, 2), n=3), proc_shape=(2, 2, 1))

        def main(comm):
            gids = numbering(part, comm.rank)
            h = gs_setup(gids, comm)
            x = values_for(gids.shape, np.float64, comm.rank)
            for op in (SUM, MAX):
                want = oracle_gs_op(h, gids, x, op, method)
                assert same_bits(gs_op(h, x, op=op, method=method), want)
                buf = x.copy()
                gs_op(h, buf, op=op, method=method, out=buf)
                assert same_bits(buf, want)
            return True

        assert Runtime(nranks=4).run(main) == [True] * 4


class TestOutValidation:
    def run1(self, fn):
        return Runtime(nranks=1).run(fn)[0]

    @pytest.mark.parametrize("bad", [
        lambda x: np.empty(x.size + 1),                 # wrong shape
        lambda x: np.empty(x.shape, dtype=np.float32),  # wrong dtype
        lambda x: np.empty((x.size, 2))[:, 0],          # not contiguous
    ])
    def test_gs_op_rejects_bad_out(self, bad):
        def main(comm):
            h = gs_setup(np.array([4, 4, 9, 1]), comm)
            x = np.arange(4.0)
            gs_op(h, x, out=bad(x))

        with pytest.raises(Exception, match="gs out must be"):
            self.run1(main)

    def test_many_rejects_bad_out_and_scatter_checks_length(self):
        def main(comm):
            h = gs_setup(np.array([4, 4, 9, 1]), comm)
            x = np.arange(4.0)
            with pytest.raises(ValueError, match="gs out must be"):
                gs_op_many(h, [x, x], out=[x.copy(), np.empty(3)])
            with pytest.raises(ValueError, match="condensed shape"):
                h.scatter(np.zeros(2))
            return True

        assert self.run1(main)

    def test_without_out_the_result_is_fresh(self):
        def main(comm):
            h = gs_setup(np.array([4, 4, 9, 1]), comm)
            x = np.arange(4.0)
            r = gs_op(h, x)
            return (not np.shares_memory(r, x)) and x.tolist() == [0, 1, 2, 3]

        assert self.run1(main)


# -- the pair plan against the condense path -----------------------------

#: ranks -> (element box, rank grid, periodic axes).  Every layout has a
#: one-element-thick periodic axis (an element's two faces on it are one
#: id: a pair inside the element) or a non-periodic one (boundary faces
#: are Dirichlet singletons), most of them both.
PAIR_LAYOUTS = {
    1: ((2, 1, 3), (1, 1, 1), (True, True, False)),
    2: ((2, 2, 1), (2, 1, 1), (True, False, True)),
    3: ((3, 2, 1), (3, 1, 1), (True, False, True)),
    4: ((4, 2, 1), (2, 2, 1), (False, True, True)),
    8: ((2, 2, 2), (2, 2, 2), (True, True, True)),
    9: ((3, 3, 1), (3, 3, 1), (True, False, True)),
}


def pair_mesh(nranks):
    shape, procs, periodic = PAIR_LAYOUTS[nranks]
    return BoxMesh(shape=shape, n=3, periodic=periodic), procs


def plain_handle(comm):
    mesh, procs = pair_mesh(comm.size)
    part = Partition(mesh, proc_shape=procs)
    return gs_setup(dg_face_numbering(part, comm.rank), comm)


def rebalanced_handle(comm):
    """What a load-balancing step builds: the numbering of an SFC
    assignment with uneven weights (so uneven element counts)."""
    mesh, _ = pair_mesh(comm.size)
    weights = 1.0 + np.arange(mesh.nelgt) % 3
    assignment = sfc_partition(mesh, comm.size, weights=weights)
    return gs_setup(dg_face_numbering(assignment, comm.rank), comm)


def restored_handle(comm):
    """What a cached setup artifact gives a job: the handle pickled
    without its comm, then rebound."""
    handle = plain_handle(comm)
    handle.comm = None
    restored = pickle.loads(pickle.dumps(handle))
    restored.comm = comm
    return restored


def pair_values(shape, dtype, seed):
    """Two fields, with signed zeros and NaNs among float entries."""
    rng = np.random.default_rng(seed)
    if dtype is np.int64:
        return rng.integers(-4, 5, size=shape)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape)
    x[pick < 0.2] = 0.0
    x[(pick >= 0.2) & (pick < 0.4)] = -0.0
    x[(pick >= 0.4) & (pick < 0.45)] = np.nan
    return x


def pair_calls(handle, u, op, method="pairwise"):
    """Every gs entry point on a two-field stack ``u``."""
    outs = [gs_op(handle, u[0], op=op, method=method),
            gs_op(handle, u, op=op, method=method)]
    inplace = u.copy()
    gs_op(handle, inplace, op=op, method=method, out=inplace)
    outs.append(inplace)
    mixed = (op, MAX if op is SUM else SUM)  # one op per field
    outs.append(gs_op(handle, u, op=mixed, method=method))
    inplace = u.copy()
    gs_op(handle, inplace, op=mixed, method=method, out=inplace)
    outs.append(inplace)
    outs += gs_op_many(handle, [u[0], u[1]], op=op, method=method)
    fields = [u[1].copy(), u[0].copy()]
    outs += gs_op_many(handle, fields, op=op, method=method, out=fields)
    posted = [gs_op_begin(handle, u[0], op=op, method=method, tag=7101),
              gs_op_begin(handle, u, op=op, method=method, tag=7102)]
    outs.append(gs_op_finish(posted[0]))
    outs.append(gs_op_finish(posted[1], u[::-1]))
    return outs


def run_pair_matrix(nranks, make_handle, condense):
    """Values, clocks, profile rows and message trace of the matrix;
    ``condense`` hides the pair plan so the same handles run condense
    -> fold -> scatter."""

    def main(comm):
        handle = make_handle(comm)
        if condense:
            handle._derived["pair"] = None
        outs = []
        for dtype in DTYPES:
            u = pair_values((2,) + handle.shape, dtype, comm.rank)
            for op in OPS:
                outs += pair_calls(handle, u, op)
        assert isinstance(handle._derived["pair"], PairPlan) != condense
        rows = [(r.op, r.site, r.count, r.vtime.hex(), r.bytes_total)
                for r in comm.profile.records.values()]
        return outs, comm.clock.now.hex(), rows

    rt = Runtime(nranks=nranks, trace_messages=True)
    return rt.run(main), rt.trace.events()


class TestPairPlanMatchesCondense:
    @pytest.mark.parametrize("make_handle", [
        plain_handle, rebalanced_handle, restored_handle,
    ], ids=["plain", "rebalanced", "restored"])
    @pytest.mark.parametrize("nranks", sorted(PAIR_LAYOUTS))
    def test_every_observable_is_bitwise_the_condense_paths(
        self, nranks, make_handle
    ):
        got, got_trace = run_pair_matrix(nranks, make_handle, False)
        want, want_trace = run_pair_matrix(nranks, make_handle, True)
        for rank, (g, w) in enumerate(zip(got, want, strict=True)):
            for a, b in zip(g[0], w[0], strict=True):
                assert same_bits(a, b), rank
            assert g[1:] == w[1:], rank
        assert got_trace == want_trace

    def test_layouts_hold_self_pairs_and_singletons(self):
        """The matrix covers what it claims: ids with both copies inside
        one element, and ids with one copy in the whole job."""

        def main(comm):
            handle = plain_handle(comm)
            mult = gs_op(handle, np.ones(handle.shape))
            inside = (handle.inverse[:, ::2] == handle.inverse[:, 1::2])
            return bool(inside.any()), bool((mult == 1).any())

        seen = [r for p in PAIR_LAYOUTS for r in Runtime(nranks=p).run(main)]
        assert any(pair for pair, _ in seen)
        assert any(lone for _, lone in seen)

    @pytest.mark.parametrize("make_handle", [
        plain_handle, rebalanced_handle, restored_handle,
    ], ids=["plain", "rebalanced", "restored"])
    @pytest.mark.parametrize("nranks", sorted(PAIR_LAYOUTS))
    def test_dg_faces_move_whole(self, nranks, make_handle):
        """The DG face ids ascend in a face's entry order, so both
        gathers move whole faces (``N * N`` entries, or a run of faces)
        per index, whether a face's partner is on this rank, on a
        neighbour or nowhere."""

        def main(comm):
            handle = make_handle(comm)
            return handle.pair_plan().block, handle.shape[-1]

        for block, n in Runtime(nranks=nranks).run(main):
            assert block % (n * n) == 0

    @pytest.mark.parametrize("nranks", [2, 8])
    def test_cmtbone_faces_move_one_face_per_index(self, nranks):
        """The mini-app's exchange problem, 2x2x2 elements of N=5 per
        rank: one 25-entry face per index on every rank."""
        from repro.core import CMTBoneConfig

        part = CMTBoneConfig(n=5, local_shape=(2, 2, 2)).build_partition(
            nranks
        )

        def main(comm):
            handle = gs_setup(dg_face_numbering(part, comm.rank), comm)
            return handle.pair_plan().block

        assert Runtime(nranks=nranks).run(main) == [25] * nranks

    def test_the_plan_holds_no_reference_to_its_handle(self):
        def main(comm):
            plan = plain_handle(comm).pair_plan()
            return [type(getattr(plan, k)).__name__ for k in plan.__slots__]

        kinds = set(Runtime(nranks=2).run(main)[0])
        assert kinds <= {"tuple", "int", "ndarray", "list"}

    def test_other_numberings_and_methods_never_build_one(self):
        """Nekbone's C0 numbering has ids with up to eight copies; the
        crystal router and the allreduce fold condensed values."""

        def main(comm):
            cg = Nekbone(comm, NekboneConfig(
                n=3, local_shape=(2, 2, 1), gs_method="pairwise",
                cg_iterations=3))
            cg.run()
            handle = plain_handle(comm)
            u = pair_values((2,) + handle.shape, np.float64, comm.rank)
            for method in ("crystal", "allreduce"):
                pair_calls(handle, u, SUM, method)
            return cg.handle._derived.get("pair"), "pair" in handle._derived

        assert Runtime(nranks=4).run(main) == [(None, False)] * 4
