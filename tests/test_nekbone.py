"""The Nekbone comparator mini-app: operator, CG, communication."""

import numpy as np
import pytest

from repro.core import NekboneConfig, run_nekbone
from repro.core.nekbone import Nekbone
from repro.gs import gs_op
from repro.mpi import SUM, Runtime

SMALL = NekboneConfig(
    n=5, local_shape=(2, 2, 1), proc_shape=(2, 1, 1),
    cg_iterations=200, gs_method="pairwise",
)


class TestConfig:
    def test_fig7(self):
        cfg = NekboneConfig.fig7()
        assert cfg.n == 10 and cfg.nel_local == 100
        assert cfg.build_partition(256).mesh.nelgt == 25600

    def test_validation(self):
        with pytest.raises(ValueError):
            NekboneConfig(work_mode="nope")


class TestOperator:
    def _build(self, comm):
        return Nekbone(comm, SMALL)

    def test_symmetry_on_continuous_vectors(self):
        """<u, Av> == <Au, v> for continuous (assembled) u, v."""

        def main(comm):
            nb = self._build(comm)
            rng = np.random.default_rng(10 + comm.rank)
            mk = lambda: gs_op(
                nb.handle,
                rng.standard_normal(nb.handle.shape) * nb._inv_mult,
                op=SUM,
            )
            u, v = mk(), mk()
            return nb.dot(u, nb.ax(v)), nb.dot(v, nb.ax(u))

        res = Runtime(nranks=2).run(main)
        d1, d2 = res[0]
        assert d1 == pytest.approx(d2, rel=1e-10)

    def test_positive_definite_with_mass(self):
        def main(comm):
            nb = self._build(comm)
            rng = np.random.default_rng(3)
            u = gs_op(
                nb.handle,
                rng.standard_normal(nb.handle.shape) * nb._inv_mult,
                op=SUM,
            )
            return nb.dot(u, nb.ax(u))

        assert Runtime(nranks=2).run(main)[0] > 0

    def test_constant_sees_only_the_mass(self):
        """Stiffness annihilates constants on a periodic box, so ax(1)
        is the assembled mass matrix times 1; their total is the box's
        volume, 1."""

        def main(comm):
            nb = self._build(comm)
            u = np.ones(nb.handle.shape)
            w = nb.ax(u)
            mass = gs_op(nb.handle, nb._bmass * u, op=SUM)
            return float(np.max(np.abs(w - mass))), nb.dot(u, w)

        res = Runtime(nranks=2).run(main)
        assert max(err for err, _ in res) < 1e-10
        assert res[0][1] == pytest.approx(1.0, rel=1e-10)


class TestCGSolve:
    def test_manufactured_solution_recovered(self):
        def main(comm):
            return run_nekbone(comm, SMALL)

        res = Runtime(nranks=2).run(main)
        for r in res:
            assert r.solution_error < 1e-7
            assert r.iterations < SMALL.cg_iterations
            # Residual history is monotone-ish downward overall.
            assert r.residual_history[-1] < 1e-2 * r.residual_history[0]

    def test_profile_regions(self):
        def main(comm):
            return run_nekbone(comm, SMALL)

        res = Runtime(nranks=2).run(main)
        names = set(res[0].profiler.stats)
        assert {"ax_local", "gs_op_", "glsc3", "cg_iteration",
                "gs_setup"} <= names

    def test_proxy_mode_runs_fixed_iterations(self):
        cfg = SMALL.with_(work_mode="proxy", cg_iterations=10)

        def main(comm):
            return run_nekbone(comm, cfg)

        res = Runtime(nranks=2).run(main)
        assert res[0].iterations == 10
        assert res[0].solution_error is None

    def test_autotune_runs(self):
        cfg = SMALL.with_(gs_method=None, cg_iterations=5,
                          work_mode="proxy")

        def main(comm):
            return run_nekbone(comm, cfg)

        res = Runtime(nranks=2).run(main)
        assert res[0].autotune is not None
        assert res[0].chosen_method in ("pairwise", "crystal", "allreduce")


class TestCommunicationStructure:
    def test_more_neighbors_than_cmtbone(self):
        """C0 numbering couples corners/edges: up to 26 neighbours."""
        from repro.core import CMTBoneConfig
        from repro.core.cmtbone import CMTBone

        nb_cfg = NekboneConfig(
            n=4, local_shape=(1, 1, 1), proc_shape=(3, 3, 3),
            gs_method="pairwise", work_mode="proxy", cg_iterations=1,
        )
        cb_cfg = CMTBoneConfig(
            n=4, local_shape=(1, 1, 1), proc_shape=(3, 3, 3),
            gs_method="pairwise", work_mode="proxy", nsteps=1,
        )

        def main(comm):
            nb = Nekbone(comm, nb_cfg)
            cb = CMTBone(comm, cb_cfg)
            return len(nb.handle.neighbors), len(cb.handle.neighbors)

        res = Runtime(nranks=27).run(main)
        nekbone_n, cmtbone_n = res[0]
        assert nekbone_n == 26
        assert cmtbone_n == 6

    def test_dot_is_an_allreduce(self):
        def main(comm):
            return run_nekbone(comm, SMALL.with_(cg_iterations=3,
                                                 work_mode="proxy"))

        rt = Runtime(nranks=2)
        rt.run(main)
        ops = {r.op for r in rt.job_profile().aggregates()}
        assert "MPI_Allreduce" in ops
