"""The compiled gather-scatter plan against a sort + ``reduceat`` oracle.

The oracle below is the local pass ``repro.gs`` used before it compiled
a plan at ``gs_setup``: permute the data so equal ids are contiguous,
``ufunc.reduceat`` over the segments, and scatter back with one fancy
index.  The plan must reproduce it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gs import gs_op, gs_op_many, gs_setup
from repro.gs.ops import METHODS
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
