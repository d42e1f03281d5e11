"""Virtual scale-out engine (``repro.vscale``).

The contract under test (docs/virtual-scale.md): the analytic
schedule must agree with a real ``gs_setup``, the batched network
costs must be bit-identical to their scalar twins, the modeled
timelines must agree with executed sample runs within the one
documented tolerance, and the sampled-rank physics must stay bitwise
identical to a full execution.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CMTBoneConfig
from repro.mpi import Runtime
from repro.perfmodel import MachineModel
from repro.perfmodel.network import NetworkModel
from repro.perfmodel.topology import (
    FatTreeTopology,
    FlatTopology,
    TorusTopology,
)
from repro.vscale import engine as engine_module
from repro.vscale import (
    DEFAULT_TOLERANCES,
    GS_METHODS,
    VirtualScaleEngine,
    VscaleError,
    build_schedule,
    schedule_matches_handle,
)


def _cfg(**over):
    base = dict(
        n=5, local_shape=(2, 2, 1), nsteps=2, neq=3, work_mode="proxy"
    )
    base.update(over)
    return CMTBoneConfig(**base)


@pytest.fixture
def a_byte_too_many(monkeypatch):
    """A model that prices every crystal stage message one byte over."""
    exact = engine_module.message_nbytes
    monkeypatch.setattr(
        engine_module, "message_nbytes",
        lambda groups, raw: exact(groups, raw) + 1.0,
    )


# -- analytic schedule vs real gs_setup ---------------------------------


class TestSchedule:
    @pytest.mark.parametrize("nranks", [4, 12, 16])
    def test_matches_real_gs_setup(self, nranks):
        config = _cfg(gs_method="pairwise")
        sched = build_schedule(config, nranks)

        def main(comm):
            from repro.core.cmtbone import CMTBone

            app = CMTBone(comm, config)
            return schedule_matches_handle(sched, app.handle, comm.rank)

        mismatches = Runtime(nranks=nranks).run(main)
        assert mismatches == [None] * nranks

    def test_pos_is_reverse_index(self):
        sched = build_schedule(_cfg(), 24)
        ranks = np.arange(sched.nranks)[:, None]
        k = sched.n_neighbors
        # nbr[nbr[r, j], pos[r, j]] == r: the j-th neighbour's
        # pos-column message is the one addressed back to r.
        back = sched.nbr[sched.nbr, sched.pos]
        assert (back == np.broadcast_to(ranks, (sched.nranks, k))).all()

    def test_rows_sorted(self):
        sched = build_schedule(_cfg(), 12)
        assert (np.diff(sched.nbr, axis=1) > 0).all()


# -- batched network costs == scalar, bitwise ---------------------------


TOPOLOGIES = [
    FlatTopology(),
    FatTreeTopology(ranks_per_node=4, nodes_per_switch=3),
    TorusTopology(shape=(4, 3, 2)),
]


class TestBatchedNetwork:
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: type(t).__name__)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_batched_equals_scalar(self, topo, data):
        # Both the shm path (same node / same rank) and the tcp path
        # (cross-node, hop-dependent latency) must match bitwise.
        net = NetworkModel(g_inject=1.5e-10, topology=topo)
        n = data.draw(st.integers(min_value=1, max_value=16))
        ranks = st.integers(min_value=0, max_value=23)
        src = np.array(
            data.draw(st.lists(ranks, min_size=n, max_size=n)),
            dtype=np.int64,
        )
        dst = np.array(
            data.draw(st.lists(ranks, min_size=n, max_size=n)),
            dtype=np.int64,
        )
        nbytes = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=10**7),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
        hops = topo.hops_batch(src, dst)
        send = net.send_overhead_batch(nbytes)
        transit = net.transit_batch(src, dst, nbytes)
        for i in range(n):
            s, d, b = int(src[i]), int(dst[i]), int(nbytes[i])
            assert hops[i] == topo.hops(s, d)
            assert send[i] == net.send_overhead(b)
            assert transit[i] == net.transit(s, d, b)


# -- modeled vs executed agreement --------------------------------------


class TestAgreement:
    @pytest.mark.parametrize("method", GS_METHODS)
    def test_small_p(self, method):
        engine = VirtualScaleEngine(_cfg(), nranks=16, sample=16)
        a = engine.validate(method)
        assert a.ok, a.describe()
        assert a.schedule_mismatch is None

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("nranks", [3, 5, 6, 7, 12])
    @pytest.mark.parametrize("method", GS_METHODS)
    def test_non_power_of_two(self, method, nranks, overlap):
        # Crystal's fold/unfold, the allreduce fold (the gs method and
        # the monitor) and pairwise's odd grids all engage.
        engine = VirtualScaleEngine(
            _cfg(overlap=overlap), nranks=nranks, sample=nranks
        )
        a = engine.validate(method)
        assert a.ok, a.describe()

    def test_one_tolerance_for_every_method(self):
        assert DEFAULT_TOLERANCES == dict.fromkeys(GS_METHODS, 1e-9)

    @pytest.mark.parametrize("nranks", [8, 12, 16, 24])
    @pytest.mark.parametrize("n", [5, 8])
    def test_crystal_is_priced_exactly(self, n, nranks):
        """Stage messages are charged a closed form of their record
        counts, so the model needs no slack: powers of two and the
        fold/unfold of 12 and 24 ranks alike."""
        cfg = _cfg(n=n, local_shape=(2, 2, 2))
        engine = VirtualScaleEngine(cfg, nranks=nranks, sample=nranks)
        a = engine.validate("crystal")
        assert a.tolerance == 1e-9
        assert a.ok and a.rel_err < 1e-13, a.describe()

    def test_overlap_hides_communication(self):
        engine = VirtualScaleEngine(
            _cfg(overlap=True), nranks=16, sample=16
        )
        a = engine.validate("pairwise")
        assert a.ok, a.describe()
        assert a.executed_hidden.max() > 0.0
        assert a.modeled_hidden.max() > 0.0

    def test_compute_imbalance(self):
        engine = VirtualScaleEngine(
            _cfg(compute_imbalance=0.3), nranks=8, sample=8
        )
        a = engine.validate("pairwise")
        assert a.ok, a.describe()
        # The jitter must actually spread the modeled ranks.
        assert a.modeled.max() > a.modeled.min()

    def test_tolerance_override_can_fail(self, a_byte_too_many):
        engine = VirtualScaleEngine(_cfg(), nranks=8, sample=8)
        off = engine.validate("crystal")
        assert not off.ok and DEFAULT_TOLERANCES["crystal"] < off.rel_err < 1e-3
        loose = engine.validate("crystal", tolerance=2 * off.rel_err)
        assert loose.tolerance == 2 * off.rel_err and loose.ok
        tight = engine.validate("crystal", tolerance=off.rel_err / 2)
        assert tight.tolerance == off.rel_err / 2 and not tight.ok
        # The other methods' models are untouched.
        assert engine.validate("pairwise").ok

    def test_sampled_physics_bitwise_identical(self):
        # The sample run IS the physics: digests of the 4-rank sample
        # equal the first 4 digests of the fully executed 8-rank job.
        config = _cfg(n=4, work_mode="real")
        sampled = VirtualScaleEngine(config, nranks=8, sample=4)
        full = VirtualScaleEngine(config, nranks=8, sample=8)
        d_sample = sampled.execute_sample("pairwise").digests
        d_full = full.execute_sample("pairwise").digests
        assert d_sample == d_full[: len(d_sample)]


# -- wave structure: the model sends what the executed job sends --------


def _executed_step_traffic(config, nranks):
    """Messages and bytes the executed step loop puts on the wire:
    every rank's trace events after a barrier that follows setup."""
    from repro.core.cmtbone import CMTBone

    rt = Runtime(nranks=nranks, trace_messages=True)

    def main(comm):
        bone = CMTBone(comm, config)
        comm.barrier()
        start = len(rt.trace.rank_events(comm.rank))
        bone.run()
        return start

    starts = rt.run(main)
    sizes = [
        e.nbytes
        for r, start in enumerate(starts)
        for e in rt.trace.rank_events(r)[start:]
    ]
    return len(sizes), sum(sizes)


class TestWaveStructure:
    @pytest.mark.parametrize("nranks", [8, 12])
    @pytest.mark.parametrize("method", GS_METHODS)
    def test_messages_and_bytes_equal_the_executed_trace(
        self, method, nranks
    ):
        engine = VirtualScaleEngine(_cfg(), nranks=nranks, sample=nranks)
        modeled = engine.model(method)
        executed = _executed_step_traffic(
            engine._config_for(nranks, method), nranks
        )
        assert (modeled.messages, modeled.wire_bytes) == executed

    @pytest.mark.parametrize(
        "nranks", [1, 2, 3, 1023, 12288, 65535, 65536]
    )
    def test_crystal_stage_table_delivers_every_record(self, nranks):
        """The executed mask rule over ``crystal_stages`` leaves every
        record on its destination rank: fold, stages and unfold."""
        rng = np.random.default_rng(nranks)
        holder = np.repeat(np.arange(nranks, dtype=np.int64), 3)
        dest = rng.integers(0, nranks, size=holder.size)
        raw = np.full(holder.size, 16.0)
        _, at, to = engine_module._crystal_route(nranks, holder, dest, raw)
        assert (at == to).all()


# -- the modeled timelines at virtual scale -----------------------------


class TestModel:
    def test_scale_sweep_is_pure_modeling(self):
        engine = VirtualScaleEngine(_cfg(), nranks=65536, sample=8)
        sweep = engine.sweep(GS_METHODS, [1024, 65536])
        for p, by_method in sweep.items():
            for m, t in by_method.items():
                assert t.nranks == p
                assert t.total.shape == (p,)
                assert (t.total > 0).all()
                assert t.step_seconds > 0
        # The paper's Fig. 7 finding holds at scale: the dense global
        # vector makes allreduce collapse far from the others.
        big = sweep[65536]
        assert (
            big["allreduce"].step_seconds
            > 10 * big["pairwise"].step_seconds
        )

    def test_model_rejects_unknown_method(self):
        engine = VirtualScaleEngine(_cfg(), nranks=8)
        with pytest.raises(VscaleError):
            engine.model("hypercube")

    def test_constructor_rejections(self):
        with pytest.raises(VscaleError):
            VirtualScaleEngine(_cfg(pack_fields=True))
        with pytest.raises(VscaleError):
            VirtualScaleEngine(_cfg(lb_mode="auto"))
        with pytest.raises(VscaleError):
            VirtualScaleEngine(_cfg(nsteps=0))
        with pytest.raises(VscaleError):
            VirtualScaleEngine(_cfg(), nranks=0)
        with pytest.raises(VscaleError):
            VirtualScaleEngine(_cfg(), nranks=8, sample=0)

    def test_fault_extrapolation(self):
        engine = VirtualScaleEngine(_cfg(), nranks=16384, sample=8)
        fx = engine.extrapolate_faults("pairwise", rank_mtbf_hours=5000)
        assert fx.job_mtbf_seconds == pytest.approx(
            5000 * 3600 / 16384
        )
        assert fx.interval_seconds > 0
        assert fx.interval_steps >= 1
        assert 0 < fx.overhead_fraction < 1
        assert fx.effective_step_seconds > fx.step_seconds

    def test_report_text(self):
        engine = VirtualScaleEngine(_cfg(), nranks=256, sample=8)
        text = engine.report(
            ("pairwise",), validate=True, rank_mtbf_hours=5000
        )
        assert "P=256" in text
        assert "[OK] pairwise" in text
        assert "% time in MPI (modeled, pairwise)" in text
        assert "Young/Daly" in text


# -- what-if exploration ------------------------------------------------


class TestExploration:
    """Machine what-ifs are engine calls on a modified MachineModel."""

    def test_sweep_rows_name_the_argmin(self):
        engine = VirtualScaleEngine(_cfg(), nranks=1024, sample=8)
        sweep = engine.sweep(("pairwise", "allreduce"), [64, 1024])
        assert sorted(sweep) == [64, 1024]
        for p, by_method in sweep.items():
            assert set(by_method) == {"pairwise", "allreduce"}
            assert all(t.nranks == p for t in by_method.values())
        # The engine's winner at its own rank count is the sweep argmin.
        times = {m: t.step_seconds for m, t in sweep[1024].items()}
        winner, timeline = engine.best_method(("pairwise", "allreduce"))
        assert winner == min(times, key=times.get)
        assert timeline.step_seconds == min(times.values())

    def test_best_method_tie_goes_to_the_first_named(self, monkeypatch):
        """The rule ``vscale``'s text and JSON ``fastest`` print."""
        engine = VirtualScaleEngine(_cfg(), nranks=1024, sample=8)
        tie = SimpleNamespace(step_seconds=1.0)
        monkeypatch.setattr(engine, "model", lambda method: tie)
        for methods in (("pairwise", "allreduce"), ("allreduce", "pairwise")):
            assert engine.best_method(methods) == (methods[0], tie)

    def _timeline(self, machine):
        engine = VirtualScaleEngine(
            _cfg(), nranks=1024, machine=machine, sample=8
        )
        return engine.model("pairwise")

    def test_faster_network_gives_faster_steps(self):
        base = MachineModel.preset("compton")
        fastnet = base.with_network(
            replace(base.network, latency=base.network.latency * 0.5)
        )
        assert (
            self._timeline(fastnet).step_seconds
            < self._timeline(base).step_seconds
        )

    def test_faster_cpu_gives_less_compute(self):
        base = MachineModel.preset("compton")
        fastcpu = replace(base, cpu=replace(base.cpu, ghz=2 * base.cpu.ghz))
        assert (
            self._timeline(fastcpu).compute.max()
            < self._timeline(base).compute.max()
        )


# -- CLI ---------------------------------------------------------------


class TestCli:
    def test_vscale_study(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "vscale", "--ranks", "256", "--sample", "8",
                "--proxy", "-N", "5", "--local", "2,2,1",
                "--steps", "2", "--mtbf", "5000",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "P=256" in out
        assert "[OK]" in out and "[FAIL]" not in out
        assert "faults:" in out

    def test_vscale_json(self, capsys):
        import json

        from repro.cli import main

        rc = main(
            [
                "vscale", "--ranks", "128", "--sample", "8",
                "--proxy", "-N", "5", "--local", "2,2,1",
                "--steps", "2", "--gs-method", "pairwise", "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nranks"] == 128
        assert doc["fastest"] == "pairwise"
        assert doc["agreement"]["pairwise"]["ok"] is True

    def test_vscale_agreement_failure_exits_nonzero(
        self, capsys, a_byte_too_many
    ):
        from repro.cli import main

        argv = [
            "vscale", "--ranks", "64", "--sample", "8",
            "--proxy", "-N", "5", "--local", "2,2,1",
            "--steps", "2", "--gs-method", "crystal",
        ]
        assert main(argv) == 1
        assert main(argv + ["--tolerance", "1e-3"]) == 0

    def test_vscale_rejects_unmodelable_config(self, capsys):
        from repro.cli import main

        rc = main(["vscale", "--ranks", "8", "--steps", "0"])
        assert rc == 2


# -- modeled mpiP summaries ---------------------------------------------


class TestModeledReport:
    def test_summarize_values(self):
        from repro.analysis.mpip import summarize_values

        mean, mn, mx, imb = summarize_values([10.0, 20.0, 30.0])
        assert (mean, mn, mx) == (20.0, 10.0, 30.0)
        assert imb == pytest.approx(1.5)
        assert summarize_values([]) == (0.0, 0.0, 0.0, 0.0)

    def test_modeled_fraction_report(self):
        from repro.analysis.mpip import modeled_fraction_report

        text = modeled_fraction_report(
            np.linspace(10.0, 30.0, 1000), title="modeled MPI"
        )
        assert "modeled MPI" in text
        assert "p95" in text
        assert "ranks=1000" in text
        assert modeled_fraction_report([]).endswith("(no ranks)")
