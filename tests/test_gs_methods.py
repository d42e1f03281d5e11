"""All three gs exchange methods against a serial reference.

The key library invariant: pairwise exchange, crystal router, and the
allreduce method are interchangeable — identical results for any
numbering, any rank count, any supported reduction.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gs import gs_op, gs_setup
from repro.mesh import BoxMesh, Partition, continuous_numbering, dg_face_numbering
from repro.mpi import MAX, MIN, PROD, SUM, Runtime

METHODS = ["pairwise", "crystal", "allreduce"]


def serial_reference(all_gids, all_vals, opfn, init):
    """Combine every value sharing a gid, serially."""
    acc = {}
    for gids, vals in zip(all_gids, all_vals):
        for g, v in zip(gids.ravel(), vals.ravel()):
            g = int(g)
            acc[g] = opfn(acc[g], v) if g in acc else v
    out = []
    for gids in all_gids:
        out.append(
            np.array([acc[int(g)] for g in gids.ravel()]).reshape(gids.shape)
        )
    return out


def run_gs(nranks, gids_fn, method, op, seed=0):
    def main(comm):
        gids = gids_fn(comm.rank)
        h = gs_setup(gids, comm)
        rng = np.random.default_rng(seed + comm.rank)
        vals = rng.standard_normal(gids.shape)
        out = gs_op(h, vals, op=op, method=method)
        return gids, vals, out

    return Runtime(nranks=nranks).run(main)


OPS = {
    "sum": (SUM, lambda a, b: a + b),
    "min": (MIN, min),
    "max": (MAX, max),
    "prod": (PROD, lambda a, b: a * b),
}


class TestMethodsAgainstReference:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("opname", list(OPS))
    def test_random_numbering(self, method, opname):
        op, opfn = OPS[opname]
        rng = np.random.default_rng(42)
        tables = [rng.integers(0, 30, size=12) for _ in range(4)]
        res = run_gs(4, lambda r: tables[r], method, op)
        gids = [r[0] for r in res]
        vals = [r[1] for r in res]
        expect = serial_reference(gids, vals, opfn, None)
        for got, exp in zip((r[2] for r in res), expect):
            np.testing.assert_allclose(got, exp, rtol=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    def test_rank_counts_including_non_pow2(self, method, nranks):
        rng = np.random.default_rng(nranks)
        tables = [rng.integers(0, 20, size=9) for _ in range(nranks)]
        res = run_gs(nranks, lambda r: tables[r], method, SUM)
        expect = serial_reference(
            [r[0] for r in res], [r[1] for r in res], lambda a, b: a + b, 0
        )
        for got, exp in zip((r[2] for r in res), expect):
            np.testing.assert_allclose(got, exp, rtol=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_dg_numbering_on_mesh(self, method):
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 2, 2))
        res = run_gs(
            8, lambda r: dg_face_numbering(part, r), method, SUM, seed=5
        )
        expect = serial_reference(
            [r[0] for r in res], [r[1] for r in res], lambda a, b: a + b, 0
        )
        for got, exp in zip((r[2] for r in res), expect):
            np.testing.assert_allclose(got, exp, rtol=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_continuous_numbering_on_mesh(self, method):
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 1, 1))
        res = run_gs(
            2, lambda r: continuous_numbering(part, r), method, SUM, seed=6
        )
        expect = serial_reference(
            [r[0] for r in res], [r[1] for r in res], lambda a, b: a + b, 0
        )
        for got, exp in zip((r[2] for r in res), expect):
            np.testing.assert_allclose(got, exp, rtol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_methods_agree(self, seed):
        """Pairwise, crystal, allreduce give identical results."""
        rng = np.random.default_rng(seed)
        tables = [rng.integers(0, 15, size=8) for _ in range(3)]
        outs = {}
        for method in METHODS:
            res = run_gs(3, lambda r: tables[r], method, SUM, seed=seed)
            outs[method] = [r[2] for r in res]
        for rank in range(3):
            np.testing.assert_allclose(
                outs["pairwise"][rank], outs["crystal"][rank], rtol=1e-12
            )
            np.testing.assert_allclose(
                outs["pairwise"][rank], outs["allreduce"][rank], rtol=1e-12
            )


class TestGsOpSemantics:
    def test_idempotent_after_first_application(self):
        """gs(add) of (gs-averaged) continuous data rescales by mult...

        The precise invariant: applying gs(add) then dividing by the
        multiplicity, twice, equals doing it once (projection).
        """
        mesh = BoxMesh(shape=(2, 2, 1), n=3)
        part = Partition(mesh, proc_shape=(2, 1, 1))

        def main(comm):
            h = gs_setup(continuous_numbering(part, comm.rank), comm)
            mult = gs_op(h, np.ones(h.shape), op=SUM)
            rng = np.random.default_rng(comm.rank)
            u = rng.standard_normal(h.shape)
            once = gs_op(h, u, op=SUM) / mult
            twice = gs_op(h, once, op=SUM) / mult
            return np.max(np.abs(twice - once))

        res = Runtime(nranks=2).run(main)
        assert max(res) < 1e-12

    def test_min_plus_max_consistency(self):
        """gs(min) <= original <= gs(max) pointwise."""
        rng = np.random.default_rng(0)
        tables = [rng.integers(0, 10, size=20) for _ in range(4)]

        def main(comm):
            h = gs_setup(tables[comm.rank], comm)
            u = np.random.default_rng(comm.rank).standard_normal(h.shape)
            lo = gs_op(h, u, op=MIN)
            hi = gs_op(h, u, op=MAX)
            return bool(np.all(lo <= u + 1e-15) and np.all(u <= hi + 1e-15))

        assert all(Runtime(nranks=4).run(main))

    def test_multiplicity_values(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 2, 2))

        def main(comm):
            h = gs_setup(continuous_numbering(part, comm.rank), comm)
            mult = gs_op(h, np.ones(h.shape), op=SUM)
            return sorted(set(np.unique(mult).tolist()))

        res = Runtime(nranks=8).run(main)
        for values in res:
            assert values == [1.0, 2.0, 4.0, 8.0]

    def test_unknown_method_rejected(self):
        def main(comm):
            h = gs_setup(np.array([1, 2]), comm)
            gs_op(h, np.zeros(2), method="quantum")

        with pytest.raises(Exception, match="unknown gs method"):
            Runtime(nranks=1).run(main)

    def test_handle_method_default_used(self):
        def main(comm):
            h = gs_setup(np.array([comm.rank, 5]), comm)
            h.method = "crystal"
            return gs_op(h, np.ones(2), op=SUM).tolist()

        res = Runtime(nranks=2).run(main)
        assert res[0] == [1.0, 2.0]  # id 5 shared
