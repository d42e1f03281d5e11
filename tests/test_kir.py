"""Kernel IR: contraction programs, passes, codegen, autotune, library.

The heart of this suite is the bitwise acceptance matrix: for every
registered program and every N in the paper's 5..25 sweep, each
schedule — and each public ``repro.kernels`` entry point that resolves
to it — must be bit-for-bit identical to the hand-written reference of
the same loop structure in ``tests/kernel_oracles.py`` (``gemm`` ≡
``fused``, ``plane`` ≡ ``basic``, ``einsum`` ≡ ``einsum``) — codegen
introduces *zero* numerical change.  ``gemm_rev``, whose contraction
order genuinely differs, is held to a normwise 1e-10 screen instead,
the same screen the autotuner applies to candidates.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro import kir
from repro.autotune import best_time, host_fingerprint, time_trials
from repro.kernels import dealias as dl
from repro.kernels import derivatives as dk
from repro.kernels.operators import interpolation_matrix
from repro.kernels.workspace import Workspace
from repro.kir import autotune as at
from repro.store import host_dir

from . import kernel_oracles as oracle

ALL_N = range(5, 26)
#: Public variant -> the schedule it must resolve to.
STATIC_VARIANTS = {
    "fused": "gemm", "basic": "plane", "einsum": "einsum",
    "generated": "gemm",
}


def compiled(prog, sched):
    return kir.lower(kir.schedule(prog, sched))


def close(a, b, rtol=1e-10):
    """Normwise comparison (elementwise rtol is meaningless at zeros)."""
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= (
        rtol * np.abs(np.asarray(b)).max()
    )


def field(n, nel=2, seed=None):
    rng = np.random.default_rng(100 * n if seed is None else seed)
    return rng.standard_normal((nel, n, n, n))


def dmatrix(n):
    return np.random.default_rng(7 * n).standard_normal((n, n))


# ---------------------------------------------------------------------
# IR layer
# ---------------------------------------------------------------------


class TestIR:
    def test_programs_registered(self):
        assert set(kir.PROGRAMS) == {
            "dudr", "duds", "dudt", "grad", "interp_fine", "interp_coarse"
        }

    @pytest.mark.parametrize("name", ["dudr", "duds", "dudt"])
    def test_derivative_flops_match_hand_formula(self, name):
        for n in ALL_N:
            prog = kir.build_program(name, n)
            assert kir.program_flops(prog, 9) == dk.flops(n, 9)
            assert kir.program_mem_bytes(prog, 9) == dk.mem_bytes(n, 9)

    def test_grad_counts_are_three_directions(self):
        prog = kir.build_program("grad", 8)
        assert kir.program_flops(prog, 4) == dk.flops(8, 4, ndirections=3)
        # per-contraction streamed traffic: 3 x (read u + write out),
        # the same model as the hand formula's ndirections=3
        assert kir.program_mem_bytes(prog, 4) == dk.mem_bytes(
            8, 4, ndirections=3
        )

    def test_interp_flops_match_dealias_formula(self):
        for n in (5, 10, 17):
            fine = kir.build_program("interp_fine", n)
            coarse = kir.build_program("interp_coarse", n)
            pair = kir.program_flops(fine, 3) + kir.program_flops(coarse, 3)
            assert pair == dl.dealias_flops(n, nel=3)

    def test_build_program_cached(self):
        assert kir.build_program("dudr", 9) is kir.build_program("dudr", 9)

    def test_contract_spec(self):
        prog = kir.build_program("duds", 6)
        (op,) = prog.body
        assert op.spec == "jm,eimk->eijk"

    def test_unknown_program_raises(self):
        with pytest.raises(KeyError):
            kir.build_program("nope", 5)

    def test_program_validation_rejects_unknown_reads(self):
        t = kir.tensor
        with pytest.raises(ValueError):
            kir.Program(
                name="bad",
                inputs=(t("u", "eijk", i=4, j=4, k=4),),
                outputs=(t("o", "eijk", i=4, j=4, k=4),),
                body=(
                    kir.Contract(
                        out=t("o", "eijk", i=4, j=4, k=4),
                        a=t("W", "im", i=4, m=4),  # W never declared
                        b=t("u", "emjk", m=4, j=4, k=4),
                        sum_axes=("m",),
                    ),
                ),
                params={"n": 4},
            )


# ---------------------------------------------------------------------
# passes / schedules
# ---------------------------------------------------------------------


class TestSchedules:
    def test_default_schedule_is_first_candidate(self):
        assert next(iter(kir.SCHEDULES)) == kir.DEFAULT_SCHEDULE

    def test_derivative_schedules(self):
        prog = kir.build_program("dudr", 6)
        scheds = kir.applicable_schedules(prog)
        assert "gemm" in scheds and "plane" in scheds and "einsum" in scheds

    def test_surviving_schedules(self):
        assert tuple(kir.SCHEDULES) == ("gemm", "plane", "einsum", "gemm_rev")

    def test_gemm_rev_only_for_chains(self):
        assert "gemm_rev" not in kir.applicable_schedules(
            kir.build_program("dudr", 6)
        )
        assert "gemm_rev" in kir.applicable_schedules(
            kir.build_program("interp_fine", 6)
        )

    def test_unknown_schedule_raises(self):
        with pytest.raises(KeyError):
            kir.schedule(kir.build_program("dudr", 5), "warp")

    def test_describe_mentions_every_op(self):
        sched = kir.schedule(kir.build_program("interp_fine", 5), "gemm")
        text = sched.describe()
        assert "interp_fine" in text and "gemm" in text


# ---------------------------------------------------------------------
# lowering / codegen
# ---------------------------------------------------------------------


class TestLowering:
    def test_source_attached(self):
        k1 = compiled(kir.build_program("dudr", 7), "gemm")
        assert "np.matmul" in k1.source
        assert k1.fn.__kir_source__ == k1.source

    def test_unknown_lowering_raises(self):
        with pytest.raises(KeyError):
            kir.lower(kir.schedule(kir.build_program("dudr", 5), "gemm"),
                      lowering="cuda")

    def test_dump_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KIR_DUMP", str(tmp_path))
        sched = kir.schedule(kir.build_program("duds", 11), "plane")
        kir.lower(sched)
        files = list(tmp_path.glob("*.py"))
        assert len(files) == 1
        text = files[0].read_text()
        assert "duds" in text and "def " in text

    def test_workspace_temps_reused(self):
        prog = kir.build_program("interp_fine", 6)
        fn = compiled(prog, "gemm").fn
        u = field(6)
        J = np.asarray(interpolation_matrix(6, dl.dealias_order(6)))
        work = Workspace()
        a = fn(u, J, work=work).copy()
        b = fn(u, J, work=work)
        assert np.array_equal(a, b)
        # the two intermediates came from the pool under kir: keys
        keys = {k[0] for k in getattr(work, "_buffers", {})}
        if keys:  # only introspect if the pool exposes its dict
            assert any(str(k).startswith("kir:interp_fine") for k in keys)


# ---------------------------------------------------------------------
# the bitwise acceptance matrix
# ---------------------------------------------------------------------


class TestBitwiseMatrix:
    """Generated == hand-written oracle, bit for bit, N = 5..25."""

    @pytest.mark.parametrize("direction", ["r", "s", "t"])
    def test_derivative_programs(self, direction):
        for n in ALL_N:
            u, D = field(n), dmatrix(n)
            prog = kir.build_program(kir.direction_program(direction), n)
            refs = {
                "gemm": oracle.derivative(u, D, direction, "fused"),
                "plane": oracle.derivative(u, D, direction, "basic"),
                "einsum": oracle.derivative(u, D, direction, "einsum"),
            }
            assert set(kir.applicable_schedules(prog)) == set(refs)
            for s, ref in refs.items():
                got = compiled(prog, s).fn(u, D)
                assert np.array_equal(got, ref), (n, direction, s)

    def test_grad_program(self):
        for n in ALL_N:
            u, D = field(n), dmatrix(n)
            prog = kir.build_program("grad", n)
            refs = {
                "gemm": oracle.grad(u, D, "fused"),
                "plane": oracle.grad(u, D, "basic"),
                "einsum": oracle.grad(u, D, "einsum"),
            }
            assert set(kir.applicable_schedules(prog)) == set(refs)
            for s, ref in refs.items():
                got = compiled(prog, s).fn(u, D)
                assert all(
                    np.array_equal(g, r) for g, r in zip(got, ref)
                ), (n, "grad", s)

    def test_interp_programs(self):
        for n in ALL_N:
            u = field(n)
            m = dl.dealias_order(n)
            J = np.asarray(interpolation_matrix(n, m))
            Jc = np.asarray(interpolation_matrix(m, n))
            fine_ref = oracle.apply_tensor(J, u)
            coarse_ref = oracle.apply_tensor(Jc, fine_ref)
            pf = kir.build_program("interp_fine", n)
            pc = kir.build_program("interp_coarse", n)
            for s in kir.applicable_schedules(pf):
                got = compiled(pf, s).fn(u, J)
                if s == "gemm":
                    assert np.array_equal(got, fine_ref), (n, s)
                else:
                    assert close(got, fine_ref), (n, s)
            got = compiled(pc, "gemm").fn(fine_ref, Jc)
            assert np.array_equal(got, coarse_ref), n

    def test_out_path_bitwise_matches_allocating(self):
        for n in (5, 12, 20, 25):
            u, D = field(n), dmatrix(n)
            prog = kir.build_program("dudr", n)
            for s in kir.applicable_schedules(prog):
                fn = compiled(prog, s).fn
                out = np.empty_like(u)
                fn(u, D, out=out)
                assert np.array_equal(out, fn(u, D)), (n, s)

    # -- the public entry points are what production calls ------------

    @pytest.mark.parametrize("variant", sorted(STATIC_VARIANTS))
    def test_public_derivative_and_grad(self, variant):
        for n in ALL_N:
            u, D = field(n), dmatrix(n)
            work = Workspace()
            gref = oracle.grad(u, D, variant)
            for ref, d in zip(gref, "rst"):
                assert np.array_equal(
                    dk.derivative(u, D, d, variant), ref
                ), (n, d, variant)
                out = np.full_like(u, np.nan)
                assert dk.derivative(u, D, d, variant, out=out) is out
                assert np.array_equal(out, ref), (n, d, variant, "out")
            for outs in (None, tuple(np.full_like(u, np.nan) for _ in "rst"),
                         dk.grad_workspace(work, u)):
                got = dk.grad(u, D, variant, out=outs)
                assert all(
                    np.array_equal(g, r) for g, r in zip(got, gref)
                ), (n, "grad", variant, outs is None)

    @pytest.mark.parametrize("variant", sorted(STATIC_VARIANTS))
    def test_public_dealias_pair(self, variant):
        # Every static variant runs the GEMM chain for the transfer.
        for n in ALL_N:
            u = field(n)
            m = dl.dealias_order(n)
            fine_ref = oracle.apply_tensor(
                np.asarray(interpolation_matrix(n, m)), u
            )
            coarse_ref = oracle.apply_tensor(
                np.asarray(interpolation_matrix(m, n)), fine_ref
            )
            work = Workspace()
            for kw in ({}, {"work": work}):
                fine = dl.to_fine(u, n, variant=variant, **kw)
                assert np.array_equal(fine, fine_ref), (n, variant, kw)
                fout = np.full_like(fine_ref, np.nan)
                assert dl.to_fine(
                    u, n, out=fout, variant=variant, **kw
                ) is fout
                assert np.array_equal(fout, fine_ref), (n, variant, kw)
                cout = np.full_like(u, np.nan)
                dl.to_coarse(fine_ref, n, out=cout, variant=variant, **kw)
                assert np.array_equal(cout, coarse_ref), (n, variant, kw)
                assert np.array_equal(
                    dl.to_coarse(fine_ref, n, variant=variant, **kw),
                    coarse_ref,
                ), (n, variant, kw)


# ---------------------------------------------------------------------
# autotune + persistent cache
# ---------------------------------------------------------------------


@pytest.fixture
def cache_path(tmp_path):
    return str(tmp_path / "kernel-autotune")


def quick_tune(prog, nel, path, **kw):
    kw.setdefault("repeats", 1)
    kw.setdefault("trials", 1)
    return at.tune_program(prog, nel, cache_path=path, **kw)


class TestAutotune:
    def test_cold_then_warm(self, cache_path):
        at.CACHE_STATS.reset()
        prog = kir.build_program("dudr", 8)
        cold = quick_tune(prog, 16, cache_path)
        assert not cold.from_cache
        assert at.CACHE_STATS.misses == 1 and at.CACHE_STATS.hits == 0
        assert os.path.exists(
            at.entry_path(cache_path, at.cache_key("dudr", 8, 16))
        )
        warm = quick_tune(prog, 16, cache_path)
        assert warm.from_cache
        assert warm.schedule == cold.schedule
        assert at.CACHE_STATS.hits == 1 and at.CACHE_STATS.misses == 1

    def test_winner_beats_or_ties_candidates(self, cache_path):
        prog = kir.build_program("duds", 10)
        res = quick_tune(prog, 16, cache_path, repeats=2, trials=2)
        assert res.timings[res.schedule] == min(res.timings.values())
        assert set(res.checked) >= {"gemm"}

    def test_cache_file_schema(self, cache_path):
        prog = kir.build_program("dudt", 6)
        quick_tune(prog, 8, cache_path)
        # One file for the one entry, in this host's directory, with
        # the key and the layout version in its name.
        host = host_dir(cache_path)
        assert os.listdir(cache_path) == [os.path.basename(host)]
        assert os.listdir(host) == ["dudt-n6-nel8-numpy-v2.json"]
        with open(os.path.join(host, os.listdir(host)[0])) as fh:
            entry = json.load(fh)
        assert set(entry) == {"schedule", "timings", "checked"}
        assert entry["schedule"] in kir.SCHEDULES
        assert entry["timings"][entry["schedule"]] > 0

    def test_corrupt_cache_degrades_gracefully(self, cache_path):
        prog = kir.build_program("dudr", 6)
        path = at.entry_path(cache_path, at.cache_key("dudr", 6, 8))
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            fh.write("{ definitely not json")
        at.CACHE_STATS.reset()
        with pytest.warns(RuntimeWarning, match="unreadable"):
            res = quick_tune(prog, 8, cache_path)
        assert not res.from_cache
        assert at.CACHE_STATS.load_errors == 1
        # and the retune healed the file
        healed = at.load_entry(cache_path, at.cache_key("dudr", 6, 8))
        assert healed["schedule"] == res.schedule

    def test_stale_version_degrades_gracefully(self, cache_path, tmp_path):
        """Neither the one-table ``kernel-autotune.json`` of layout 1
        nor an entry file of another version is read: the cache reads
        cold, without a warning."""
        import warnings

        key = at.cache_key("dudr", 6, 8)
        winner = {"schedule": "gemm", "timings": {"gemm": 1e-9},
                  "checked": ["gemm"]}
        with open(tmp_path / "kernel-autotune.json", "w") as fh:
            json.dump({"version": 1,
                       "hosts": {host_fingerprint(): {key: winner}}}, fh)
        stale = at.entry_path(cache_path, key).replace(
            f"-v{at.CACHE_VERSION}.json", "-v1.json")
        os.makedirs(os.path.dirname(stale))
        with open(stale, "w") as fh:
            json.dump(winner, fh)
        at.CACHE_STATS.reset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = quick_tune(kir.build_program("dudr", 6), 8, cache_path)
        assert not res.from_cache
        assert (at.CACHE_STATS.misses, at.CACHE_STATS.load_errors) == (1, 0)

    def test_removed_schedule_entry_is_a_miss(self, cache_path):
        """A persisted winner naming a schedule that no longer exists
        re-tunes and overwrites; it never reaches ``SCHEDULES[...]``."""
        key = at.cache_key("duds", 6, 8)
        at.save_entry(cache_path, key,
                      {"schedule": "tbatch", "timings": {"tbatch": 1e-9},
                       "checked": ["tbatch"]})
        at.CACHE_STATS.reset()
        res = quick_tune(kir.build_program("duds", 6), 8, cache_path)
        assert not res.from_cache and res.schedule in kir.SCHEDULES
        assert at.CACHE_STATS.misses == 1 and at.CACHE_STATS.hits == 0
        entry = at.load_entry(cache_path, key)
        assert entry["schedule"] == res.schedule
        assert "tbatch" not in entry["timings"]
        lib = kir.KernelLibrary(cache_path=cache_path)
        assert lib.resolve("duds", 6, 8, "auto").schedule == res.schedule

    def test_different_nel_is_a_different_key(self, cache_path):
        at.CACHE_STATS.reset()
        prog = kir.build_program("dudr", 6)
        quick_tune(prog, 8, cache_path)
        quick_tune(prog, 24, cache_path)
        assert at.CACHE_STATS.misses == 2

    def test_env_var_controls_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert at.default_cache_path() == str(tmp_path / "kernel-autotune")

    def test_candidate_screen_excludes_wrong_results(
        self, cache_path, monkeypatch
    ):
        # A broken lowering must be screened out, not tuned in; it is
        # plugged in through the same seam a compiled backend would use.
        class BrokenPlane(kir.NumpyLowering):
            name = "broken"

            def lower(self, sched):
                k = super().lower(sched)
                if sched.schedule != "plane":
                    return k
                return kir.LoweredKernel(
                    program=k.program, schedule=k.schedule,
                    lowering=self.name, source="",
                    fn=lambda u, D, out=None, work=None: np.zeros_like(u),
                )

        monkeypatch.setitem(kir.LOWERINGS, "broken", BrokenPlane)
        prog = kir.build_program("dudr", 6)
        with pytest.warns(RuntimeWarning, match="correctness"):
            res = quick_tune(prog, 8, cache_path, lowering="broken",
                             use_cache=False)
        assert "plane" not in res.checked
        assert res.schedule != "plane"


# ---------------------------------------------------------------------
# library + kernels-layer dispatch
# ---------------------------------------------------------------------


class TestLibrary:
    def test_variant_table_resolves_and_memoizes(self):
        lib = kir.KernelLibrary(use_cache=False)
        assert kir.VARIANT_SCHEDULE["fused"] == kir.DEFAULT_SCHEDULE
        for variant, sched in STATIC_VARIANTS.items():
            k = lib.resolve("dudr", 8, 16, variant=variant)
            assert k.schedule == sched == kir.static_schedule(variant)
            assert lib.resolve("dudr", 8, 16, variant=variant) is k
        # aliases share one compiled kernel
        assert lib.resolve("dudr", 8, 16, "generated") is lib.resolve(
            "dudr", 8, 16, "fused"
        )
        assert "generated" not in kir.CLI_VARIANTS
        assert set(kir.CLI_VARIANTS) == set(kir.VARIANT_SCHEDULE) - {
            "generated"
        }

    def test_explicit_schedule_variant(self):
        lib = kir.KernelLibrary(use_cache=False)
        assert lib.resolve("dudr", 8, 16, variant="plane").schedule == "plane"

    def test_unknown_variant_raises(self):
        lib = kir.KernelLibrary(use_cache=False)
        with pytest.raises(ValueError, match="unknown kernel variant"):
            lib.resolve("dudr", 8, 16, variant="blazing")

    def test_auto_uses_tuner_and_memoizes(self, cache_path):
        lib = kir.KernelLibrary(cache_path=cache_path)
        at.CACHE_STATS.reset()
        k1 = lib.resolve("dudt", 6, 8, variant="auto")
        k2 = lib.resolve("dudt", 6, 8, variant="auto")
        assert k1 is k2
        assert at.CACHE_STATS.misses == 1  # tuned exactly once

    def test_concurrent_auto_resolves_tune_once(self, cache_path):
        """Rank threads asking for the same cold ``auto`` kernel: the
        first tunes, the rest reuse its winner — one miss, one cache
        write, one compiled kernel."""
        lib = kir.KernelLibrary(cache_path=cache_path)
        at.CACHE_STATS.reset()
        nthreads = 8
        start = threading.Barrier(nthreads)
        got = [None] * nthreads

        def work(i):
            start.wait(timeout=30)
            got[i] = lib.resolve("grad", 5, 8, variant="auto")

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(nthreads)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert at.CACHE_STATS.misses == 1 and at.CACHE_STATS.hits == 0
        entry = at.entry_path(cache_path, at.cache_key("grad", 5, 8))
        assert os.listdir(os.path.dirname(entry)) == [
            os.path.basename(entry)
        ]
        assert got[0] is not None and all(k is got[0] for k in got)

    def test_schedules_introspection(self):
        lib = kir.KernelLibrary()
        assert "gemm" in lib.schedules("interp_fine", 6)


class TestDispatch:
    def test_auto_matches_oracle_to_roundoff(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kir.reset_default_library()
        try:
            for n in (5, 10, 20):
                u, D = field(n), dmatrix(n)
                for d in "rst":
                    assert close(
                        dk.derivative(u, D, d, "auto"),
                        oracle.derivative(u, D, d, "fused"),
                    ), (n, d)
        finally:
            kir.reset_default_library()

    def test_out_contract(self):
        u, D = field(6), dmatrix(6)
        with pytest.raises(ValueError, match="alias"):
            dk.dudr(u, D, out=u)
        with pytest.raises(ValueError, match="C-contiguous"):
            dk.dudr(u, D, out=np.empty_like(u).transpose(0, 2, 1, 3))
        out = np.empty_like(u)
        assert dk.dudr(u, D, out=out) is out

    def test_unknown_names_list_the_one_table(self):
        """derivative, grad, to_fine, kernel_cost and the library all
        report the same variant and schedule names."""
        from repro.kernels.counters import kernel_cost

        u, D = field(5), dmatrix(5)
        lib = kir.KernelLibrary(use_cache=False)
        calls = [
            lambda: dk.dudr(u, D, variant="vectorized"),
            lambda: dk.grad(u, D, variant="vectorized"),
            lambda: dl.to_fine(u, 5, variant="vectorized"),
            lambda: kernel_cost("r", "vectorized", 5, 2),
            lambda: lib.resolve("dudr", 5, 2, variant="vectorized"),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError, match="unknown kernel variant") as e:
                call()
            messages.add(str(e.value))
        assert len(messages) == 1
        (msg,) = messages
        for name in (*kir.VARIANT_SCHEDULE, *kir.SCHEDULES):
            assert repr(name) in msg

    def test_dealias_out_variants(self):
        u = field(7)
        n = 7
        m = dl.dealias_order(n)
        work = Workspace()
        ref = dl.to_fine(u, n)
        out = np.empty((u.shape[0], m, m, m))
        assert dl.to_fine(u, n, out=out, work=work) is out
        assert np.array_equal(out, ref)
        # contiguous view over the same buffer: the alias guard, not
        # the contiguity check, must fire
        alias_out = ref.reshape(-1)[: ref.shape[0] * n**3].reshape(
            ref.shape[0], n, n, n
        )
        with pytest.raises(ValueError, match="alias"):
            dl.to_coarse(ref, n, out=alias_out)
        rt_ref = dl.roundtrip(u, n)
        rt = dl.roundtrip(u, n, out=np.empty_like(u), work=work)
        assert np.array_equal(rt, rt_ref)


# ---------------------------------------------------------------------
# shared tuning helpers (repro.autotune)
# ---------------------------------------------------------------------


class TestSharedAutotune:
    def test_host_fingerprint_shape(self):
        fp = host_fingerprint()
        assert fp.count("/") == 2 and len(fp) > 2

    def test_time_trials_counts_calls(self):
        calls = []
        dt = time_trials(lambda: calls.append(1), trials=3, warmup=2)
        assert len(calls) == 5
        assert dt >= 0.0

    def test_time_trials_sync_called(self):
        syncs = []
        time_trials(lambda: None, trials=1, warmup=0,
                    sync=lambda: syncs.append(1))
        assert syncs  # barrier ran at least once

    def test_best_time_is_min_over_repeats(self):
        ticker = iter(range(100))

        def fake_timer():
            return float(next(ticker))

        dt = best_time(lambda: None, repeats=3, trials=1, warmup=0,
                       timer=fake_timer)
        assert dt >= 0.0




#: Entry files the reader must turn into a warned miss.  In the old
#: one-table layout, ``not_utf8`` as the table, ``not_a_dict`` as a
#: host's table and ``checked_not_list`` as an entry each raised out of
#: ``tune_program`` (and with it ``--kernel-variant auto``).
CORRUPT_ENTRIES = {
    "not_json": b"{ definitely not json",
    "not_utf8": b'{"schedule": "\xff\xfe"}',
    "not_a_dict": b"5",
    "a_list": b'["gemm"]',
    "schedule_not_str": b'{"schedule": 5, "timings": {}, "checked": []}',
    "timings_not_dict": b'{"schedule": "gemm", "timings": 5, '
                        b'"checked": ["gemm"]}',
    "checked_not_list": b'{"schedule": "gemm", "timings": {}, '
                        b'"checked": 5}',
    "empty": b"",
}


class TestCorruptEntry:
    @pytest.mark.parametrize("name", sorted(CORRUPT_ENTRIES))
    def test_corrupt_entry_is_a_warned_miss(self, cache_path, name):
        key = at.cache_key("dudr", 6, 8)
        path = at.entry_path(cache_path, key)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(CORRUPT_ENTRIES[name])
        at.CACHE_STATS.reset()
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert at.load_entry(cache_path, key) is None
        with pytest.warns(RuntimeWarning, match="unreadable"):
            res = quick_tune(kir.build_program("dudr", 6), 8, cache_path)
        assert not res.from_cache
        assert at.CACHE_STATS.load_errors == 2
        assert at.load_entry(cache_path, key)["schedule"] == res.schedule

    def test_auto_variant_survives_corrupt_entry(self, cache_path):
        key = at.cache_key("dudt", 6, 8)
        path = at.entry_path(cache_path, key)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(CORRUPT_ENTRIES["not_utf8"])
        lib = kir.KernelLibrary(cache_path=cache_path)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            k = lib.resolve("dudt", 6, 8, variant="auto")
        assert k.schedule == at.load_entry(cache_path, key)["schedule"]


def _save_worker(path, keys, barrier):
    """Child process: write several entries after a common barrier."""
    barrier.wait()
    for key in keys:
        at.save_entry(path, key, {"schedule": "gemm", "timings": {},
                                  "checked": [key]})


def _dying_writer(path, key):
    """Child process: die inside the write callback, half written."""

    def dump(obj, fh, **kw):
        text = json.dumps(obj)
        fh.write(text[: len(text) // 2])
        fh.flush()
        os._exit(7)

    json.dump = dump  # this forked child only
    at.save_entry(path, key, {"schedule": "plane", "timings": {},
                              "checked": ["plane"]})


class TestCacheConcurrency:
    def test_concurrent_writers_lose_no_entries(self, cache_path):
        """N processes writing distinct keys into one cache directory
        keep every entry: no two of them share a file."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        nprocs, per_proc = 4, 6
        barrier = ctx.Barrier(nprocs)
        procs = [
            ctx.Process(
                target=_save_worker,
                args=(cache_path, [f"k{p}-{i}" for i in range(per_proc)],
                      barrier),
            )
            for p in range(nprocs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        for p in range(nprocs):
            for i in range(per_proc):
                entry = at.load_entry(cache_path, f"k{p}-{i}")
                assert entry["checked"] == [f"k{p}-{i}"]
        assert len(os.listdir(host_dir(cache_path))) == nprocs * per_proc

    def test_killed_writer_keeps_previous_entry(self, cache_path):
        """A writer killed half-way through its write leaves the entry
        it was replacing readable and equal; its tmp file is never read
        as an entry, and a key it wrote first stays a plain miss."""
        import multiprocessing as mp
        import warnings

        ctx = mp.get_context("fork")
        before = {"schedule": "gemm", "timings": {"gemm": 1e-4},
                  "checked": ["gemm"]}
        at.save_entry(cache_path, "kept", before)
        for key in ("kept", "fresh"):
            proc = ctx.Process(target=_dying_writer, args=(cache_path, key))
            proc.start()
            proc.join(timeout=60)
            assert proc.exitcode == 7
        names = os.listdir(host_dir(cache_path))
        tmps = [n for n in names if not n.endswith(".json")]
        assert len(tmps) == 2 and len(names) == 3, names
        at.CACHE_STATS.reset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert at.load_entry(cache_path, "kept") == before
            assert at.load_entry(cache_path, "fresh") is None
        assert at.CACHE_STATS.load_errors == 0
