"""Job-service tier: queue policy, worker pool and artifact cache.

The load-bearing assertions are the bitwise ones: a job run through
the service (artifact-cache hit or miss, fresh or reused worker) must
produce exactly the digest and virtual time a standalone run of the
same spec produces.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service import (
    ArtifactCache,
    DiskArtifactStore,
    JobQueue,
    JobResult,
    JobSpec,
    Service,
    SetupArtifact,
    WorkerPool,
    run_campaign,
    run_job,
    spec_artifact_key,
)

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = {"n": 5, "nel": 8, "nsteps": 2}
SOD = {"n": 5, "nelx": 8, "nsteps": 2}


def small_spec(i=0, **kw):
    kw.setdefault("params", dict(SMALL))
    return JobSpec(kind="cmtbone", name=f"j{i}", nranks=2, **kw)


# ---------------------------------------------------------------------
# JobSpec / JobResult
# ---------------------------------------------------------------------


class TestJobSpec:
    def test_json_round_trip(self):
        spec = small_spec(priority=3, submitter="alice")
        back = JobSpec.from_json(spec.to_json())
        assert back == spec

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="nope")

    def test_rejects_bad_nranks(self):
        with pytest.raises(ValueError, match="nranks"):
            JobSpec(kind="cmtbone", nranks=0)

    def test_rejects_backend_param(self):
        with pytest.raises(ValueError, match="thread ranks"):
            small_spec(params={**SMALL, "backend": "procs"})

    def test_small_classification(self):
        assert small_spec().is_small()
        big = JobSpec(kind="cmtbone", nranks=8,
                      params={"n": 25, "nel": 64, "nsteps": 100})
        assert not big.is_small()

    def test_result_round_trip_ignores_unknown_fields(self):
        doc = JobResult(job_id="x", kind="cmtbone").to_json()
        doc["future_field"] = 1
        assert JobResult.from_json(doc).job_id == "x"


# ---------------------------------------------------------------------
# JobQueue policy
# ---------------------------------------------------------------------


def drain_queue(queue):
    """Pop every batch the queue will currently give out."""
    batches = []
    while True:
        batch = queue.next_batch()
        if not batch:
            return batches
        batches.append([e.spec for e in batch])


class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        q = JobQueue(batch_max=1)
        lo = small_spec(0, priority=0)
        hi = small_spec(1, priority=5)
        lo2 = small_spec(2, priority=0)
        for s in (lo, hi, lo2):
            q.submit(s)
        order = [b[0].job_id for b in drain_queue(q)]
        assert order == [hi.job_id, lo.job_id, lo2.job_id]

    def test_duplicate_id_rejected(self):
        q = JobQueue()
        spec = small_spec()
        q.submit(spec)
        with pytest.raises(ValueError, match="duplicate"):
            q.submit(spec)

    def test_small_jobs_batch_up_to_max(self):
        q = JobQueue(batch_max=3)
        for i in range(5):
            q.submit(small_spec(i))
        sizes = [len(b) for b in drain_queue(q)]
        assert sizes == [3, 2]
        assert q.stats.batched_dispatches == 2

    def test_large_jobs_travel_alone(self):
        q = JobQueue(batch_max=4)
        big_params = {"n": 25, "nel": 64, "nsteps": 100}
        q.submit(small_spec(0))
        q.submit(JobSpec(kind="cmtbone", name="big", nranks=8,
                         params=big_params))
        q.submit(small_spec(1))
        batches = drain_queue(q)
        # The big job neither joins a batch nor accepts companions,
        # and later smalls never jump over it (strict FIFO order).
        assert [len(b) for b in batches] == [1, 1, 1]
        assert batches[1][0].name == "big"

    def test_quota_defers_excess_jobs(self):
        q = JobQueue(quota=1, batch_max=4)
        a0 = small_spec(0, submitter="alice")
        a1 = small_spec(1, submitter="alice")
        b0 = small_spec(2, submitter="bob")
        for s in (a0, a1, b0):
            q.submit(s)
        first = [s.job_id for b in drain_queue(q) for s in b]
        # alice's second job waits even though nothing else queues.
        assert first == [a0.job_id, b0.job_id]
        assert q.stats.quota_deferrals >= 1
        q.job_finished(a0.job_id, JobResult(a0.job_id, "cmtbone"))
        nxt = [s.job_id for b in drain_queue(q) for s in b]
        assert nxt == [a1.job_id]

    def test_cancel_pending_reports_cancelled_result(self):
        q = JobQueue()
        spec = small_spec()
        q.submit(spec)
        assert q.cancel(spec.job_id)
        (result,) = q.pop_finished()
        assert result.job_id == spec.job_id
        assert result.status == "cancelled"
        assert q.pop_finished() == []
        assert drain_queue(q) == []
        assert q.stats.cancelled == 1

    def test_cancel_dispatched_job_refused(self):
        q = JobQueue()
        spec = small_spec()
        q.submit(spec)
        q.next_batch()
        assert not q.cancel(spec.job_id)
        assert not q.cancel("unknown-id")

    def test_readmit_requeues_with_retry_accounting(self):
        q = JobQueue(quota=1, batch_max=1)
        spec = small_spec(0, submitter="alice")
        q.submit(spec)
        (entry,) = q.next_batch()
        assert q.running_count() == 1
        q.readmit(entry)
        # The quota slot is released until it dispatches again.
        assert q.running_count() == 0
        assert entry.retries == 1
        assert q.stats.readmitted == 1
        (again,) = q.next_batch()
        assert again is entry
        q.readmit(again, charge=False)  # collateral: no charge
        assert again.retries == 1
        assert q.stats.readmitted == 2

    def test_readmit_rejects_undispatched_job(self):
        q = JobQueue()
        q.submit(small_spec())
        with pytest.raises(ValueError, match="not dispatched"):
            q.readmit(next(iter(q._jobs.values())))


# ---------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------


class TestArtifactCache:
    def test_partial_entries_invisible(self):
        cache = ArtifactCache()
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        cache.store("k", 0, art, nranks=2)
        assert cache.lookup("k", 2) is None  # only rank 0 stored
        cache.store("k", 1, art, nranks=2)
        entry = cache.lookup("k", 2)
        assert entry is not None and entry.nranks == 2
        assert cache.stats.snapshot() == {
            "hits": 1, "misses": 1, "stores": 2,
            "disk_hits": 0, "disk_stores": 0,
        }

    def test_nranks_mismatch_is_a_miss(self):
        cache = ArtifactCache()
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        cache.store("k", 0, art, nranks=1)
        assert cache.lookup("k", 2) is None

    def test_store_after_publish_is_noop(self):
        cache = ArtifactCache()
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        cache.store("k", 0, art, nranks=1)
        cache.store("k", 0, art, nranks=1)
        assert len(cache) == 1

    def test_key_sensitive_to_config(self):
        base = spec_artifact_key(small_spec())
        assert spec_artifact_key(small_spec()) == base
        other = small_spec(params={**SMALL, "n": 6})
        assert spec_artifact_key(other) != base
        # steps don't affect setup, so they share a key
        steps = small_spec(params={**SMALL, "nsteps": 9})
        assert spec_artifact_key(steps) == base
        assert spec_artifact_key(
            JobSpec(kind="sod", params=dict(SOD))) is None

    def test_key_of_invalid_config_is_none_not_raise(self):
        # Regression: spec_artifact_key runs in the service's drive
        # loop (affinity routing); raising there killed the pump and
        # hung every submitted future.  An unbuildable config simply
        # has no cache identity.
        bad = small_spec(params={**SMALL, "work_mode": "bogus"})
        assert spec_artifact_key(bad) is None
        bad_n = small_spec(params={**SMALL, "n": "wat"})
        assert spec_artifact_key(bad_n) is None


class TestDiskArtifactCache:
    """Disk spill: restart-surviving, atomic, partial-proof, tolerant."""

    def test_restart_warm_hit_is_bitwise_identical(self, tmp_path):
        d = str(tmp_path / "spill")
        cold = run_job(small_spec(0), ArtifactCache(disk=d))
        # A *fresh* cache on the same directory simulates a service
        # restart: nothing in memory, everything from disk.
        warm_cache = ArtifactCache(disk=d)
        warm = run_job(small_spec(1), warm_cache)
        assert cold.ok and warm.ok
        assert (cold.cache_misses, cold.cache_disk_hits) == (1, 0)
        assert (warm.cache_hits, warm.cache_disk_hits) == (1, 1)
        assert warm_cache.stats.disk_hits == 1
        assert warm.digest == cold.digest
        assert warm.vtime_total == cold.vtime_total
        assert warm.vtime_comm == cold.vtime_comm

    def test_complete_entry_spills_and_partial_never_does(self, tmp_path):
        d = str(tmp_path / "spill")
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        cache = ArtifactCache(disk=d)
        cache.store("k", 0, art, nranks=2)
        # Rank 0 of 2: nothing may reach disk yet.
        assert not os.path.exists(cache.disk.host_dir)
        assert cache.stats.disk_stores == 0
        cache.store("k", 1, art, nranks=2)
        assert DiskArtifactStore(d).fetch("k", 2).nranks == 2
        assert os.listdir(cache.disk.host_dir) == ["k-r2-v4.pkl"]
        assert cache.stats.disk_stores == 1
        # And the publish API itself refuses a partial entry.
        from repro.service.artifacts import CacheEntry
        partial = CacheEntry(nranks=2, ranks={0: art}, method="pairwise")
        with pytest.raises(ValueError, match="partial"):
            DiskArtifactStore(d).publish("p", partial)

    def test_disk_entry_respects_nranks(self, tmp_path):
        d = str(tmp_path / "spill")
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        first = ArtifactCache(disk=d)
        first.store("k", 0, art, nranks=1)
        fresh = ArtifactCache(disk=d)
        assert fresh.lookup("k", 2) is None  # wrong nranks: a miss
        assert fresh.lookup("k", 1) is not None

    def test_corrupt_entry_degrades_to_cold(self, tmp_path):
        d = str(tmp_path / "spill")
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        cache = ArtifactCache(disk=d)
        cache.store("k", 0, art, nranks=1)
        path = Path(cache.disk.entry_path("k", 1))
        # Truncate the entry: fetch must warn and miss, not raise.
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert DiskArtifactStore(d).fetch("k", 1) is None
        # And publishing over the wreckage heals it.
        ArtifactCache(disk=d).store("k", 0, art, nranks=1)
        assert DiskArtifactStore(d).fetch("k", 1).method == "pairwise"

    def test_parent_layout_spill_is_a_cold_miss(self, tmp_path):
        """Spills of older ``GSHandle`` layouts sit under their own
        version's names: the pre-plan handle (``-v1``, with the one-table
        layout's ``index.json`` and ``<key>-r<N>.pkl`` beside it) and
        the handle with owner lists (``-v2``).  None is read, so the job
        runs cold instead of failing inside ``apply``."""
        import json
        import pickle
        import warnings

        d = str(tmp_path / "spill")
        cold = run_job(small_spec(0), ArtifactCache(disk=d))
        store = DiskArtifactStore(d)
        key = spec_artifact_key(small_spec(0))
        entry = store.fetch(key, 2)
        current = Path(store.entry_path(key, 2))
        for art in entry.ranks.values():  # the version-2 layout
            art.handle.owners = []
            art.handle.shared_index = np.empty(0, dtype=np.intp)
        current.with_name(f"{key}-r2-v2.pkl").write_bytes(pickle.dumps(entry))
        for art in entry.ranks.values():  # rewrite as the old layout
            for name in ("rep", "dup_index", "rounds"):
                delattr(art.handle, name)
            art.handle.local_order = art.handle.segment_starts = None
        old = pickle.dumps(entry)
        current.with_name(f"{key}-r2-v1.pkl").write_bytes(old)
        current.with_name(f"{key}-r2.pkl").write_bytes(old)
        current.with_name("index.json").write_text(json.dumps(
            {"version": 2, "entries": {key: {
                "nranks": 2, "method": entry.method,
                "blob": f"{key}-r2.pkl"}}}))
        current.unlink()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = run_job(small_spec(1), ArtifactCache(disk=d))
        assert again.ok, again.error
        assert (again.cache_misses, again.cache_disk_hits) == (1, 0)
        assert again.digest == cold.digest
        # The cold run republished in the current layout.
        warm = run_job(small_spec(2), ArtifactCache(disk=d))
        assert (warm.cache_hits, warm.cache_disk_hits) == (1, 1)
        assert warm.digest == cold.digest

    def test_apply_refuses_advanced_clock_after_round_trip(self, tmp_path):
        d = str(tmp_path / "spill")
        assert run_job(small_spec(0), ArtifactCache(disk=d)).ok
        key = spec_artifact_key(small_spec(0))
        entry = DiskArtifactStore(d).fetch(key, 2)
        assert entry is not None
        art = entry.artifact_for(0)

        class FakeClock:
            now = 1.0

        class FakeProfile:
            records = {}

        class FakeComm:
            clock = FakeClock()
            profile = FakeProfile()

        with pytest.raises(RuntimeError, match="fresh rank"):
            art.apply(object(), FakeComm())

    def test_concurrent_publishers_lose_no_entries(self, tmp_path):
        """N forked workers publishing distinct keys into one spill
        keep every entry: no two of them share a file."""
        import multiprocessing as mp

        d = str(tmp_path / "spill")
        ctx = mp.get_context("fork")
        nprocs, per_proc = 4, 6
        barrier = ctx.Barrier(nprocs)
        procs = [
            ctx.Process(
                target=_publish_worker,
                args=(d, [f"k{p}-{i}" for i in range(per_proc)], barrier),
            )
            for p in range(nprocs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = DiskArtifactStore(d)
        for p in range(nprocs):
            for i in range(per_proc):
                assert store.fetch(f"k{p}-{i}", 1).method == f"k{p}-{i}"
        assert len(os.listdir(store.host_dir)) == nprocs * per_proc

    def test_killed_publisher_keeps_previous_entry(self, tmp_path):
        """A publisher killed half-way through its write leaves the
        entry it was replacing readable and equal; its tmp file is never
        read as an entry, and a key it wrote first stays a plain miss."""
        import multiprocessing as mp
        import warnings

        d = str(tmp_path / "spill")
        ctx = mp.get_context("fork")
        store = DiskArtifactStore(d)
        store.publish("kept", _entry("before"))
        for key in ("kept", "fresh"):
            proc = ctx.Process(target=_dying_publisher, args=(d, key))
            proc.start()
            proc.join(timeout=60)
            assert proc.exitcode == 7
        names = os.listdir(store.host_dir)
        tmps = [n for n in names if not n.endswith(".pkl")]
        assert len(tmps) == 2 and len(names) == 3, names
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.fetch("kept", 1) == _entry("before")
            assert store.fetch("fresh", 1) is None

    def test_hosts_do_not_share_spill_dirs(self, tmp_path, monkeypatch):
        d = str(tmp_path / "spill")
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        ArtifactCache(disk=d).store("k", 0, art, nranks=1)
        monkeypatch.setenv("REPRO_HOST_ID", "some-other-host")
        other = ArtifactCache(disk=d)
        assert other.lookup("k", 1) is None  # different host dir


def _entry(method):
    from repro.service.artifacts import CacheEntry

    art = SetupArtifact(handle=None, method=method, autotune=None)
    return CacheEntry(nranks=1, ranks={0: art}, method=method)


def _publish_worker(root, keys, barrier):
    """Child process: publish several entries after a common barrier."""
    store = DiskArtifactStore(root)
    barrier.wait()
    for key in keys:
        store.publish(key, _entry(key))


def _dying_publisher(root, key):
    """Child process: die inside the write callback, half written."""
    import pickle

    def dump(obj, fh, protocol=None):
        data = pickle.dumps(obj, protocol)
        fh.write(data[: len(data) // 2])
        fh.flush()
        os._exit(7)

    pickle.dump = dump  # this forked child only
    DiskArtifactStore(root).publish(key, _entry("after"))


def _corrupt_entries():
    """Entry files the reader must turn into a warned miss.  As the
    blob of the old index layout, ``bad_int_opcode`` and
    ``ranks_not_a_dict`` raised out of ``ArtifactCache.lookup`` and
    ``ranks_not_artifacts`` was served as a hit."""
    import pickle

    from repro.service.artifacts import CacheEntry

    art = SetupArtifact(handle=None, method="pairwise", autotune=None)
    return {
        "bad_int_opcode": b"I1x\n.",
        "not_a_pickle": b"not a pickle",
        "empty": b"",
        "a_dict": pickle.dumps({"nranks": 1, "ranks": {0: art}}),
        "an_int": pickle.dumps(5),
        "ranks_not_artifacts": pickle.dumps(
            CacheEntry(nranks=1, ranks={0: 5}, method="pairwise")),
        "ranks_not_a_dict": pickle.dumps(
            CacheEntry(nranks=1, ranks=5, method="pairwise")),
        "wrong_nranks": pickle.dumps(
            CacheEntry(nranks=2, ranks={0: art, 1: art},
                       method="pairwise")),
    }


class TestCorruptDiskEntry:
    @pytest.mark.parametrize("name", sorted(_corrupt_entries()))
    def test_corrupt_entry_is_a_warned_miss(self, tmp_path, name):
        d = str(tmp_path / "spill")
        path = Path(DiskArtifactStore(d).entry_path("k", 1))
        path.parent.mkdir(parents=True)
        path.write_bytes(_corrupt_entries()[name])
        cache = ArtifactCache(disk=d)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.lookup("k", 1) is None
        assert (cache.stats.misses, cache.stats.disk_hits) == (1, 0)

    def test_random_byte_flips_never_raise(self, tmp_path):
        """1-4 byte flips of a real job's entry: every lookup returns
        (an entry or a miss); none raises."""
        import random
        import warnings

        d = str(tmp_path / "spill")
        assert run_job(small_spec(0), ArtifactCache(disk=d)).ok
        key = spec_artifact_key(small_spec(0))
        path = Path(DiskArtifactStore(d).entry_path(key, 2))
        blob = path.read_bytes()
        rng = random.Random(20261017)
        warned = 0
        for _ in range(1000):
            data = bytearray(blob)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            path.write_bytes(bytes(data))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ArtifactCache(disk=d).lookup(key, 2)
            warned += any(w.category is RuntimeWarning for w in caught)
        assert warned > 0


class TestExecuteBitwise:
    def test_hit_is_bitwise_identical_to_cold(self):
        cache = ArtifactCache()
        cold = run_job(small_spec(0), cache)
        warm = run_job(small_spec(1), cache)
        bare = run_job(small_spec(2), None)
        assert cold.ok and warm.ok and bare.ok
        assert (cold.cache_misses, warm.cache_hits) == (1, 1)
        assert cold.digest == warm.digest == bare.digest
        assert cold.vtime_total == warm.vtime_total == bare.vtime_total

    def test_apply_refuses_advanced_clock(self):
        cache = ArtifactCache()
        assert run_job(small_spec(0), cache).ok
        key = spec_artifact_key(small_spec(0))
        art = cache.lookup(key, 2).artifact_for(0)

        class FakeClock:
            now = 1.0

        class FakeProfile:
            records = {}

        class FakeComm:
            clock = FakeClock()
            profile = FakeProfile()

        with pytest.raises(RuntimeError, match="fresh rank"):
            art.apply(object(), FakeComm())

    def test_sod_job_matches_standalone(self):
        spec = JobSpec(kind="sod", nranks=2, params=dict(SOD))
        again = JobSpec(kind="sod", nranks=2, params=dict(SOD))
        a, b = run_job(spec), run_job(again)
        assert a.ok and b.ok
        assert a.digest == b.digest
        assert a.vtime_total == b.vtime_total

    def test_failed_job_reports_not_raises(self):
        bad = JobSpec(kind="cmtbone", nranks=2,
                      params={**SMALL, "work_mode": "bogus"})
        result = run_job(bad)
        assert result.status == "failed"
        assert "work_mode" in result.error

    @pytest.mark.parametrize("kind, params, message", [
        ("cmtbone", {**SMALL, "fault_spec": "crash:rank=5,step=1"},
         "fault event 'crash:rank=5,step=1' names a rank outside [0, 2)"),
        ("sod", {**SOD, "fault_spec": "crash:rank=5,step=1"},
         "fault event 'crash:rank=5,step=1' names a rank outside [0, 2)"),
        ("sod", {**SOD, "dt": -1.0}, "dt must be finite and > 0"),
    ], ids=["cmtbone-crash-rank", "sod-crash-rank", "sod-dt"])
    def test_out_of_range_job_fails_with_the_reason(
        self, kind, params, message
    ):
        result = run_job(JobSpec(kind=kind, nranks=2, params=params))
        assert result.status == "failed"
        assert message in result.error

    def test_exit_signals_propagate_not_swallowed(self, monkeypatch):
        # Regression: run_job caught BaseException, so SystemExit /
        # KeyboardInterrupt inside a job became a "failed" result and
        # the worker refused to die — breaking the timeout-kill path.
        import repro.service.execute as execute

        def boom(spec, cache, result):
            raise SystemExit(3)

        monkeypatch.setattr(execute, "_run_cmtbone", boom)
        with pytest.raises(SystemExit):
            run_job(small_spec(0))

        def interrupt(spec, cache, result):
            raise KeyboardInterrupt

        monkeypatch.setattr(execute, "_run_cmtbone", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_job(small_spec(1))


# ---------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------


class TestWorkerPool:
    def test_worker_survives_many_jobs(self):
        with WorkerPool(nworkers=1) as pool:
            pids = set()
            for i in range(3):
                spec = small_spec(i)
                pool.dispatch(0, [spec])
                (res,) = pool.wait()[0]
                assert res.ok, res.error
                pids.add(res.worker_pid)
            assert pids == {pool.worker_pids()[0]}
            assert pool.jobs_served() == 3

    def test_worker_cache_persists_across_batches(self):
        with WorkerPool(nworkers=1) as pool:
            s0, s1 = small_spec(0), small_spec(1)
            pool.dispatch(0, [s0])
            (r0,) = pool.wait()[0]
            pool.dispatch(0, [s1])
            (r1,) = pool.wait()[0]
            assert r0.cache_misses == 1
            assert r1.cache_hits == 1  # second batch, same worker
            assert spec_artifact_key(s1) in (
                pool._workers[0].cached_keys
            )

    def test_affinity_prefers_warm_worker(self):
        with WorkerPool(nworkers=2) as pool:
            spec = small_spec(0)
            pool.dispatch(1, [spec])
            pool.wait()[1]
            assert pool.pick_worker([small_spec(1)]) == 1

    def test_mid_batch_death_partial_results(self, tmp_path):
        # Worker dies on job 2 of 3: job 1's result survives, job 2 is
        # the casualty, job 3 never started — and the batch's tally is
        # credited to the dead worker, not the cold replacement.
        flag = tmp_path / "die"
        flag.touch()
        specs = [
            small_spec(0),
            small_spec(1, params={**SMALL,
                                  "exit_if_flag": str(flag)}),
            small_spec(2),
        ]
        with WorkerPool(nworkers=1) as pool:
            old_pid = pool.worker_pids()[0]
            pool.dispatch(0, specs)
            r1, r2, r3 = pool.wait()[0]
            assert r1.ok and r1.cache_misses == 1
            assert r2.status == "failed" and r2.worker_died
            assert not r2.never_started and "died mid-batch" in r2.error
            assert r3.status == "failed" and r3.worker_died
            assert r3.never_started and "never started" in r3.error
            assert pool.respawns == 1
            assert pool.worker_pids()[0] != old_pid
            # Replacement starts cold for least-loaded routing; the
            # pool-wide total still counts the dead worker's batch.
            w = pool._workers[0]
            assert (w.jobs_served, w.batches_served) == (0, 0)
            assert w.cached_keys == set()  # stale advertisement gone
            assert pool.jobs_served() == 3
            # The crash consumed the flag, so a rerun goes clean.
            pool.dispatch(0, specs[1:2])
            (redo,) = pool.wait()[0]
            assert redo.ok

    def test_timeout_kills_worker_and_respawns(self):
        sleeper = small_spec(0, timeout_seconds=0.2,
                             params={**SMALL, "sleep_s": 30.0})
        with WorkerPool(nworkers=1) as pool:
            old_pid = pool.worker_pids()[0]
            pool.dispatch(0, [sleeper])
            (res,) = pool.wait()[0]
            assert res.status == "failed"
            assert res.timed_out and not res.never_started
            assert "timeout" in res.error
            assert pool.timeout_kills == 1
            assert pool.respawns == 1
            assert pool.worker_pids()[0] != old_pid
            # Replacement is functional and cold.
            assert pool._workers[0].jobs_served == 0
            assert pool.jobs_served() == 1
            spec = small_spec(9)
            pool.dispatch(0, [spec])
            (ok,) = pool.wait()[0]
            assert ok.ok

    def test_timeout_spares_untimed_batchmates_clock(self):
        # A 0.25s-timeout sleeper batched after a normal job must not
        # charge the normal job's runtime against its own deadline:
        # the rolling monitor arms each job's clock at its own start.
        specs = [small_spec(0),
                 small_spec(1, timeout_seconds=0.25,
                            params={**SMALL, "sleep_s": 30.0}),
                 small_spec(2)]
        with WorkerPool(nworkers=1) as pool:
            pool.dispatch(0, specs)
            r1, r2, r3 = pool.wait()[0]
            assert r1.ok
            assert r2.timed_out and not r2.never_started
            assert r3.never_started  # collateral, retryable for free

    def test_dead_worker_fails_batch_and_respawns(self):
        crash = JobSpec(kind="cmtbone", nranks=2,
                        params={**SMALL, "pool_test_exit": 1})
        with WorkerPool(nworkers=1) as pool:
            old_pid = pool.worker_pids()[0]
            pool._workers[0].proc.terminate()
            pool._workers[0].proc.join()
            # The send fails; wait() reads the dead worker's EOF.
            pool.dispatch(0, [crash])
            results = pool.wait()[0]
            assert results[0].status == "failed"
            assert "died" in results[0].error
            assert pool.respawns == 1
            new_pid = pool.worker_pids()[0]
            assert new_pid != old_pid
            # and the replacement actually works
            spec = small_spec(9)
            pool.dispatch(0, [spec])
            (res,) = pool.wait()[0]
            assert res.ok

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads /proc")
    def test_workers_exit_when_parent_dies(self):
        # A worker holding the write end of its own command pipe never
        # reads EOF, so it slept on after its parent was gone.
        code = ("import os\n"
                "from repro.service import WorkerPool\n"
                "pool = WorkerPool(nworkers=2)\n"
                "print(*pool.worker_pids(), flush=True)\n"
                "os._exit(0)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [p for p in pids if running(p)]


def running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def served_affinity(pool, index):
    """The CPU set of the worker that ran a job in slot ``index``.

    Running a job first means the worker has entered its loop (and so
    restricted itself) before its mask is read.
    """
    spec = small_spec(index)
    pool.dispatch(index, [spec])
    (res,) = pool.wait()[index]
    return res, os.sched_getaffinity(res.worker_pid)


_MASK = (os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity")
         else set())


@pytest.mark.skipif(len(_MASK) < 2,
                    reason="needs sched_setaffinity and two CPUs")
class TestPlacement:
    """Each worker slot runs on its own share of the pool's CPU mask."""

    @pytest.fixture
    def two_cpus(self):
        """Narrow this process to two CPUs while the pool is built."""
        own = os.sched_getaffinity(0)
        pair = sorted(own)[:2]
        os.sched_setaffinity(0, pair)
        try:
            yield pair
        finally:
            os.sched_setaffinity(0, own)

    def test_two_workers_get_one_cpu_each(self, two_cpus):
        with WorkerPool(nworkers=2) as pool:
            shares = [served_affinity(pool, i)[1] for i in range(2)]
        assert shares == [{two_cpus[0]}, {two_cpus[1]}]

    def test_more_workers_than_cpus_share_round_robin(self, two_cpus):
        with WorkerPool(nworkers=3) as pool:
            shares = [served_affinity(pool, i)[1] for i in range(3)]
        a, b = two_cpus
        assert shares == [{a}, {b}, {a}]

    def test_one_worker_keeps_the_whole_mask(self, two_cpus):
        with WorkerPool(nworkers=1) as pool:
            res, share = served_affinity(pool, 0)
        assert res.ok
        assert share == set(two_cpus)

    def test_respawn_lands_in_the_slot_share(self, two_cpus, tmp_path):
        flag = tmp_path / "die"
        flag.touch()
        doomed = small_spec(0, params={**SMALL, "exit_if_flag": str(flag)})
        with WorkerPool(nworkers=2) as pool:
            old_pid = pool.worker_pids()[1]
            pool.dispatch(1, [doomed])
            (dead,) = pool.wait()[1]
            assert dead.worker_died and pool.respawns == 1
            res, share = served_affinity(pool, 1)
        assert res.ok and res.worker_pid != old_pid
        assert share == {two_cpus[1]}

    def test_parent_mask_is_unchanged(self):
        own = os.sched_getaffinity(0)
        with WorkerPool(nworkers=2) as pool:
            res, share = served_affinity(pool, 0)
            assert res.ok and share < own
            assert os.sched_getaffinity(0) == own
        assert os.sched_getaffinity(0) == own


# ---------------------------------------------------------------------
# Service / campaigns
# ---------------------------------------------------------------------


class TestCampaign:
    def test_mixed_campaign_hits_cache_and_matches_standalone(self):
        specs = [small_spec(i) for i in range(6)]
        specs.append(JobSpec(kind="sod", name="s", nranks=2,
                             params=dict(SOD)))
        report = run_campaign(specs, nworkers=2)
        assert not report.failed
        assert report.cache_hits > 0
        assert len(report.results) == 7
        # results come back in submission order
        assert [r.job_id for r in report.results] == [
            s.job_id for s in specs
        ]
        standalone = run_job(small_spec(99))
        for r in report.results[:6]:
            assert r.digest == standalone.digest
            assert r.vtime_total == standalone.vtime_total
        assert all(r.latency_seconds > 0 for r in report.results)
        assert report.p50 <= report.p99

    def test_campaign_respects_quota(self):
        specs = [small_spec(i, submitter="solo") for i in range(4)]
        report = run_campaign(specs, nworkers=2, quota=1, batch_max=1)
        assert not report.failed
        assert report.queue_stats["quota_deferrals"] >= 1

    def test_campaign_cache_survives_service_restart(self, tmp_path):
        d = str(tmp_path / "artifacts")
        cold = run_campaign([small_spec(0)], nworkers=1, artifact_dir=d)
        warm = run_campaign([small_spec(1)], nworkers=1, artifact_dir=d)
        (c,), (w) = cold.results, warm.results[0]
        assert c.ok and w.ok
        assert (c.cache_misses, c.cache_disk_hits) == (1, 0)
        assert (w.cache_hits, w.cache_disk_hits) == (1, 1)
        assert warm.cache_disk_hits == 1
        assert w.digest == c.digest
        assert w.vtime_total == c.vtime_total

    def test_campaign_starts_no_thread(self, monkeypatch):
        counts = []
        wait = WorkerPool.wait

        def counting_wait(pool, timeout=None):
            counts.append(threading.active_count())
            return wait(pool, timeout)

        monkeypatch.setattr(WorkerPool, "wait", counting_wait)
        before = threading.active_count()
        specs = [small_spec(i) for i in range(4)]
        report = run_campaign(specs, nworkers=2, batch_max=1)
        assert not report.failed
        assert counts and set(counts) == {before}

    def test_respawn_never_exposes_a_dead_slot(self, tmp_path, monkeypatch):
        # A slow respawn once left the dead worker's slot marked idle
        # while another batch finished; the next job went to its closed
        # pipe and the campaign hung.
        spawn = WorkerPool._spawn
        spawned = []

        def slow_respawn(pool, index):
            spawned.append(index)
            if len(spawned) > pool.nworkers:
                time.sleep(0.5)
            return spawn(pool, index)

        monkeypatch.setattr(WorkerPool, "_spawn", slow_respawn)
        flag = tmp_path / "die-once"
        flag.touch()
        specs = [small_spec(0, max_retries=1,
                            params={**SMALL, "exit_if_flag": str(flag)})]
        specs += [small_spec(i) for i in range(1, 21)]
        reports = []
        runner = threading.Thread(
            target=lambda: reports.append(
                run_campaign(specs, nworkers=2, batch_max=1)),
            daemon=True,
        )
        runner.start()
        runner.join(60.0)
        assert not runner.is_alive(), "campaign hung"
        (report,) = reports
        assert [r.status for r in report.results] == ["done"] * len(specs)
        assert len(spawned) > 2  # the crash did respawn

    def test_serve_drain_runs_the_spool(self, tmp_path, capsys):
        import json

        from repro.cli import main

        spool = str(tmp_path / "spool")
        ids = []
        for kind, params in (("cmtbone", SMALL), ("sod", SOD)):
            assert main(["submit", "--spool", spool, "--kind", kind,
                         "--params", json.dumps(params)]) == 0
            ids.append(capsys.readouterr().out.strip())
        assert main(["serve", "--spool", spool, "--workers", "1",
                     "--drain"]) == 0
        for job_id in ids:
            doc = json.loads((tmp_path / "spool" / "results"
                              / f"{job_id}.json").read_text())
            assert doc["status"] == "done", doc["error"]

    def test_cancel_through_service(self):
        specs = [small_spec(i) for i in range(12)]
        with Service(nworkers=1, batch_max=1) as svc:
            for s in specs:
                svc.submit(s)
            svc.step(0)  # the single worker takes the first job
            # Cancel from the back of the queue: those jobs can't all
            # have dispatched to the single worker yet.
            cancelled = [i for i in range(11, 0, -1)
                         if svc.cancel(specs[i].job_id)]
            by_id = {r.job_id: r for r in svc.drain()}
        results = [by_id[s.job_id] for s in specs]
        assert cancelled, "at least one queued job should cancel"
        for i, r in enumerate(results):
            expect = "cancelled" if i in cancelled else "done"
            assert r.status == expect, (i, r.status, r.error)


# ---------------------------------------------------------------------
# Timeouts and retries through the service
# ---------------------------------------------------------------------


class TestTimeoutRetryService:
    def test_timeout_retries_until_budget_exhausted(self):
        sleeper = small_spec(0, timeout_seconds=0.2, max_retries=2,
                             params={**SMALL, "sleep_s": 30.0})
        report = run_campaign([sleeper], nworkers=1)
        (res,) = report.results
        assert res.status == "failed"
        assert res.timed_out
        assert res.retries == 2  # initial attempt + 2 retries, all killed
        assert report.queue_stats["timeouts"] == 3
        assert report.queue_stats["readmitted"] == 2
        assert len(report.timed_out) == 1

    def test_worker_death_retries_only_unfinished_jobs(self, tmp_path):
        # j2 crashes its worker on the first attempt (flag consumed);
        # the retry must rerun j2 and the never-started j3 — but NOT
        # j1, whose result from the first attempt already resolved.
        flag = tmp_path / "die-once"
        flag.touch()
        specs = [
            small_spec(0),
            small_spec(1, max_retries=1,
                       params={**SMALL, "exit_if_flag": str(flag)}),
            small_spec(2),
        ]
        report = run_campaign(specs, nworkers=1)
        r1, r2, r3 = report.results
        assert not report.failed
        assert (r1.retries, r2.retries, r3.retries) == (0, 1, 0)
        # j2 charged one retry; j3 was collateral and re-admitted free.
        assert report.queue_stats["readmitted"] == 2
        assert report.queue_stats["timeouts"] == 0
        # j1 ran on the original worker, the reruns on its replacement.
        assert r1.worker_pid != r2.worker_pid
        assert r2.worker_pid == r3.worker_pid
        assert not flag.exists()

    def test_no_retry_budget_means_terminal_failure(self, tmp_path):
        flag = tmp_path / "die"
        flag.touch()
        doomed = small_spec(0, params={**SMALL,
                                       "exit_if_flag": str(flag)})
        report = run_campaign([doomed], nworkers=1)
        (res,) = report.results
        assert res.status == "failed"
        assert res.worker_died and res.retries == 0

    def test_clean_failures_are_never_retried(self):
        bad = small_spec(0, max_retries=3,
                         params={**SMALL, "work_mode": "bogus"})
        report = run_campaign([bad], nworkers=1)
        (res,) = report.results
        assert res.status == "failed"
        assert not res.retryable
        assert res.retries == 0
        assert report.queue_stats["readmitted"] == 0
