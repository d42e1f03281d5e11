"""The CMT-bone mini-app: setup, timestep pipeline, profiling output."""

import numpy as np
import pytest

from repro.core import (
    CMTBoneConfig,
    cmtbone_profile_report,
    dominant_region,
    run_cmtbone,
)
from repro.mpi import Runtime

SMALL = CMTBoneConfig(
    n=8, local_shape=(2, 2, 2), proc_shape=(2, 2, 1), nsteps=3,
    work_mode="real", gs_method="pairwise",
)


def run(cfg, nranks=4):
    rt = Runtime(nranks=nranks)
    return rt, rt.run(run_cmtbone, args=(cfg,))


class TestConfig:
    def test_fig7_matches_paper(self):
        cfg = CMTBoneConfig.fig7()
        assert cfg.n == 10
        assert cfg.nel_local == 100
        assert cfg.proc_shape == (8, 8, 4)
        part = cfg.build_partition(256)
        assert part.mesh.shape == (40, 40, 16)
        assert part.mesh.nelgt == 25600

    def test_local_shape_from_int(self):
        cfg = CMTBoneConfig(local_shape=8)
        assert cfg.nel_local == 8

    def test_proc_shape_mismatch_rejected(self):
        cfg = CMTBoneConfig(proc_shape=(2, 2, 2))
        with pytest.raises(ValueError):
            cfg.build_partition(4)

    def test_bad_work_mode(self):
        with pytest.raises(ValueError):
            CMTBoneConfig(work_mode="imaginary")

    def test_with_override(self):
        cfg = CMTBoneConfig.fig7(nsteps=5)
        assert cfg.nsteps == 5
        assert cfg.n == 10


class TestRun:
    def test_basic_run_returns_results(self):
        _, res = run(SMALL)
        assert len(res) == 4
        for r in res:
            assert r.chosen_method == "pairwise"
            assert r.vtime_total > 0
            assert 0 < r.vtime_comm < r.vtime_total

    def test_ax_dominates_profile(self):
        """The Fig. 4 claim: derivative kernel is the top region."""
        _, res = run(SMALL)
        assert dominant_region(res) == "ax_"

    def test_profile_regions_present(self):
        _, res = run(SMALL)
        names = set(res[0].profiler.stats)
        assert {"ax_", "full2face_cmt", "gs_op_", "add2s2",
                "gs_setup", "cmt_timestep"} <= names

    def test_region_call_counts(self):
        _, res = run(SMALL)
        stats = res[0].profiler.stats
        expected_stages = SMALL.nsteps * SMALL.rk_stages
        assert stats["ax_"].calls == expected_stages
        assert stats["gs_op_"].calls == expected_stages
        assert stats["cmt_timestep"].calls == SMALL.nsteps

    def test_monitor_values_collective(self):
        _, res = run(SMALL)
        for r in res:
            assert len(r.monitor_values) == SMALL.nsteps
        # allreduce(MAX): identical everywhere
        assert len({tuple(r.monitor_values) for r in res}) == 1

    def test_proxy_mode_same_comm_pattern(self):
        """Proxy mode skips math but produces identical message counts."""
        _, res_real = run(SMALL)
        rt_proxy, res_proxy = run(SMALL.with_(work_mode="proxy"))
        rt_real, _ = Runtime(nranks=4), None  # placeholder; recompute below

        rt1 = Runtime(nranks=4)
        rt1.run(run_cmtbone, args=(SMALL,))
        rt2 = Runtime(nranks=4)
        rt2.run(run_cmtbone, args=(SMALL.with_(work_mode="proxy"),))
        counts1 = {
            (r.op, r.site): r.count for r in rt1.job_profile().aggregates()
        }
        counts2 = {
            (r.op, r.site): r.count for r in rt2.job_profile().aggregates()
        }
        assert counts1 == counts2

    def test_autotune_when_no_method(self):
        cfg = SMALL.with_(gs_method=None)
        _, res = run(cfg)
        assert res[0].autotune is not None
        assert set(res[0].autotune) == {"pairwise", "crystal", "allreduce"}
        assert res[0].chosen_method == min(
            res[0].autotune.values(), key=lambda t: t.avg
        ).method

    def test_single_rank(self):
        cfg = CMTBoneConfig(
            n=4, local_shape=(2, 1, 1), proc_shape=(1, 1, 1), nsteps=2
        )
        rt = Runtime(nranks=1)
        res = rt.run(run_cmtbone, args=(cfg,))
        assert res[0].vtime_comm >= 0

    def test_deterministic_vtimes(self):
        _, res1 = run(SMALL)
        _, res2 = run(SMALL)
        for a, b in zip(res1, res2):
            assert a.vtime_total == b.vtime_total


class TestImbalance:
    def test_imbalance_widens_wait_and_fractions(self):
        balanced = SMALL.with_(work_mode="proxy", nsteps=6)
        skewed = balanced.with_(compute_imbalance=0.3)
        rt_b = Runtime(nranks=4)
        rt_b.run(run_cmtbone, args=(balanced,))
        rt_s = Runtime(nranks=4)
        rt_s.run(run_cmtbone, args=(skewed,))
        spread_b = np.ptp(rt_b.job_profile().mpi_fractions())
        spread_s = np.ptp(rt_s.job_profile().mpi_fractions())
        assert spread_s > spread_b

    def test_wait_time_grows_with_imbalance(self):
        from repro.analysis import wait_dominance

        cfg = SMALL.with_(work_mode="proxy", nsteps=6, compute_imbalance=0.4)
        rt = Runtime(nranks=4)
        rt.run(run_cmtbone, args=(cfg,))
        op, share = wait_dominance(rt.job_profile())
        assert op == "MPI_Wait"
        assert share > 0.3


class TestReports:
    def test_profile_report_renders(self):
        _, res = run(SMALL)
        text = cmtbone_profile_report(res)
        assert "ax_" in text
        assert "% time" in text


class TestInPlacePhases:
    """The memory-bound phases against their allocating reference forms."""

    CFG = CMTBoneConfig(n=5, local_shape=(2, 2, 2), nsteps=1,
                        work_mode="real", gs_method="pairwise")

    def on_one_rank(self, fn):
        from repro.core.cmtbone import CMTBone

        main = lambda comm: fn(CMTBone(comm, self.CFG))  # noqa: E731
        return Runtime(nranks=1).run(main)[0]

    @pytest.mark.parametrize("block", [768, 4999, 5000, 32768])
    def test_blocked_update_equals_three_pass(self, block, monkeypatch):
        from repro.core import cmtbone

        monkeypatch.setattr(cmtbone, "UPDATE_BLOCK", block)

        def main(app):
            assert app.u.size == 5000  # 768 and 4999 leave a partial block
            want = app.u.copy()
            want *= 0.75
            t = np.multiply(want, 0.25)
            want += t
            app._update_phase()
            return app.u.tobytes() == want.tobytes()

        assert self.on_one_rank(main)

    @pytest.mark.parametrize("fill", [
        lambda f: f.fill(0.0),
        lambda f: f.fill(-0.0),
        lambda f: f.__setitem__(..., np.random.default_rng(3)
                                .standard_normal(f.shape)),
        lambda f: f.__setitem__((0, 0, 0, 0, 0), -7.5),
        lambda f: f.__setitem__((1, 2, 3, 1, 1), np.nan),
    ])
    def test_monitor_equals_max_abs(self, fill):
        import struct

        def main(app):
            fill(app._faces)
            want = float(np.max(np.abs(app._faces)))
            app._monitor_phase()
            return app.monitor_values[-1], want

        got, want = self.on_one_rank(main)
        assert struct.pack("d", got) == struct.pack("d", want)
