"""Job-service tier: queue policy, worker pool and artifact cache.

The load-bearing assertions are the bitwise ones: a job run through
the service (artifact-cache hit or miss, fresh or reused worker) must
produce exactly the digest and virtual time a standalone run of the
same spec produces.
"""

from __future__ import annotations

import asyncio
import os

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
    def run(self, coro):
        return asyncio.run(coro)

    def test_priority_order_with_fifo_ties(self):
        async def main():
            q = JobQueue(batch_max=1)
            lo = small_spec(0, priority=0)
            hi = small_spec(1, priority=5)
            lo2 = small_spec(2, priority=0)
            for s in (lo, hi, lo2):
                q.submit(s)
            order = [b[0].job_id for b in drain_queue(q)]
            assert order == [hi.job_id, lo.job_id, lo2.job_id]

        self.run(main())

    def test_duplicate_id_rejected(self):
        async def main():
            q = JobQueue()
            spec = small_spec()
            q.submit(spec)
            with pytest.raises(ValueError, match="duplicate"):
                q.submit(spec)

        self.run(main())

    def test_small_jobs_batch_up_to_max(self):
        async def main():
            q = JobQueue(batch_max=3)
            for i in range(5):
                q.submit(small_spec(i))
            sizes = [len(b) for b in drain_queue(q)]
            assert sizes == [3, 2]
            assert q.stats.batched_dispatches == 2

        self.run(main())

    def test_large_jobs_travel_alone(self):
        async def main():
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

        self.run(main())

    def test_quota_defers_excess_jobs(self):
        async def main():
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

        self.run(main())

    def test_cancel_pending_resolves_future(self):
        async def main():
            q = JobQueue()
            spec = small_spec()
            fut = q.submit(spec)
            assert q.cancel(spec.job_id)
            result = await fut
            assert result.status == "cancelled"
            assert drain_queue(q) == []
            assert q.stats.cancelled == 1

        self.run(main())

    def test_cancel_dispatched_job_refused(self):
        async def main():
            q = JobQueue()
            spec = small_spec()
            q.submit(spec)
            q.next_batch()
            assert not q.cancel(spec.job_id)
            assert not q.cancel("unknown-id")

        self.run(main())

    def test_submit_outside_event_loop_raises(self):
        # Regression: submit used the deprecated get_event_loop(),
        # which silently created a loop nobody runs — the future then
        # never resolves.  It must be an immediate, explicit error.
        q = JobQueue()
        with pytest.raises(RuntimeError, match="running event loop"):
            q.submit(small_spec())
        assert q.stats.submitted == 0

    def test_submit_works_from_plain_coroutine(self):
        async def main():
            q = JobQueue()
            fut = q.submit(small_spec())
            assert asyncio.isfuture(fut) and not fut.done()
            return q.stats.submitted

        assert asyncio.run(main()) == 1

    def test_readmit_requeues_with_retry_accounting(self):
        async def main():
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

        self.run(main())

    def test_readmit_rejects_undispatched_job(self):
        async def main():
            q = JobQueue()
            q.submit(small_spec())
            with pytest.raises(ValueError, match="not dispatched"):
                q.readmit(next(iter(q._jobs.values())))

        self.run(main())


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
            "disk_hits": 0, "disk_stores": 0, "races_merged": 0,
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
        assert DiskArtifactStore(d).keys() == []
        assert cache.stats.disk_stores == 0
        cache.store("k", 1, art, nranks=2)
        assert DiskArtifactStore(d).keys() == ["k"]
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

    def test_corrupt_index_and_blob_degrade_to_cold(self, tmp_path):
        d = str(tmp_path / "spill")
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        cache = ArtifactCache(disk=d)
        cache.store("k", 0, art, nranks=1)
        import pathlib
        blob = pathlib.Path(cache.disk.host_dir)
        # Truncate the blob: fetch must warn and miss, not raise.
        (blob / "k-r1.pkl").write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert DiskArtifactStore(d).fetch("k", 1) is None
        # Corrupt the index: load must warn and go cold, not raise.
        (blob / "index.json").write_text("{broken")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert DiskArtifactStore(d).fetch("k", 1) is None
        # And publishing over the wreckage heals it.
        cache2 = ArtifactCache(disk=d)
        with pytest.warns(RuntimeWarning):
            cache2.store("k2", 0, art, nranks=1)
        assert "k2" in DiskArtifactStore(d).keys()

    def test_parent_layout_spill_is_a_cold_miss(self, tmp_path):
        """A spill whose blobs pickle the pre-plan ``GSHandle`` (index
        version 1) must read as cold, not fail inside ``apply``."""
        import json
        import pathlib
        import pickle

        d = str(tmp_path / "spill")
        cold = run_job(small_spec(0), ArtifactCache(disk=d))
        store = DiskArtifactStore(d)
        key = spec_artifact_key(small_spec(0))
        entry = store.fetch(key, 2)
        for art in entry.ranks.values():  # rewrite as the old layout
            for name in ("rep", "dup_index", "rounds"):
                delattr(art.handle, name)
            art.handle.local_order = art.handle.segment_starts = None
        host = pathlib.Path(store.host_dir)
        (host / f"{key}-r2.pkl").write_bytes(pickle.dumps(entry))
        index = json.loads((host / "index.json").read_text())
        index["version"] = 1
        (host / "index.json").write_text(json.dumps(index))

        with pytest.warns(RuntimeWarning, match="unsupported layout"):
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

    def test_concurrent_publishers_merge_not_clobber(self, tmp_path):
        d = str(tmp_path / "spill")
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        from repro.service.artifacts import CacheEntry, CacheStats
        entry = CacheEntry(nranks=1, ranks={0: art}, method="pairwise")
        a, b = DiskArtifactStore(d), DiskArtifactStore(d)
        a.publish("ka", entry)
        b.fetch("ka", 1)          # b observes the index: known={ka}
        a.publish("kc", entry)    # a races ahead of b's snapshot
        stats = CacheStats()
        b.publish("kb", entry, stats=stats)
        # b's merge kept a's concurrent key and counted the race.
        assert DiskArtifactStore(d).keys() == ["ka", "kb", "kc"]
        assert stats.races_merged == 1

    def test_hosts_do_not_share_spill_dirs(self, tmp_path, monkeypatch):
        d = str(tmp_path / "spill")
        art = SetupArtifact(handle=None, method="pairwise", autotune=None)
        ArtifactCache(disk=d).store("k", 0, art, nranks=1)
        monkeypatch.setenv("REPRO_HOST_ID", "some-other-host")
        other = ArtifactCache(disk=d)
        assert other.lookup("k", 1) is None  # different host dir


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
                (res,) = pool.collect(0, [spec])
                assert res.ok, res.error
                pids.add(res.worker_pid)
            assert pids == {pool.worker_pids()[0]}
            assert pool.jobs_served() == 3

    def test_worker_cache_persists_across_batches(self):
        with WorkerPool(nworkers=1) as pool:
            s0, s1 = small_spec(0), small_spec(1)
            pool.dispatch(0, [s0])
            (r0,) = pool.collect(0, [s0])
            pool.dispatch(0, [s1])
            (r1,) = pool.collect(0, [s1])
            assert r0.cache_misses == 1
            assert r1.cache_hits == 1  # second batch, same worker
            assert spec_artifact_key(s1) in (
                pool._workers[0].cached_keys
            )

    def test_affinity_prefers_warm_worker(self):
        with WorkerPool(nworkers=2) as pool:
            spec = small_spec(0)
            pool.dispatch(1, [spec])
            pool.collect(1, [spec])
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
            r1, r2, r3 = pool.collect(0, specs)
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
            (redo,) = pool.collect(0, specs[1:2])
            assert redo.ok

    def test_timeout_kills_worker_and_respawns(self):
        sleeper = small_spec(0, timeout_seconds=0.2,
                             params={**SMALL, "sleep_s": 30.0})
        with WorkerPool(nworkers=1) as pool:
            old_pid = pool.worker_pids()[0]
            pool.dispatch(0, [sleeper])
            (res,) = pool.collect(0, [sleeper])
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
            (ok,) = pool.collect(0, [spec])
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
            r1, r2, r3 = pool.collect(0, specs)
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
            pool._workers[0].busy = True  # dispatch() already happened
            results = pool.collect(0, [crash])
            assert results[0].status == "failed"
            assert "died" in results[0].error
            assert pool.respawns == 1
            new_pid = pool.worker_pids()[0]
            assert new_pid != old_pid
            # and the replacement actually works
            spec = small_spec(9)
            pool.dispatch(0, [spec])
            (res,) = pool.collect(0, [spec])
            assert res.ok


def served_affinity(pool, index):
    """The CPU set of the worker that ran a job in slot ``index``.

    Running a job first means the worker has entered its loop (and so
    restricted itself) before its mask is read.
    """
    spec = small_spec(index)
    pool.dispatch(index, [spec])
    (res,) = pool.collect(index, [spec])
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
            (dead,) = pool.collect(1, [doomed])
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

    def test_cancel_through_service(self):
        specs = [small_spec(i) for i in range(12)]

        async def main():
            async with Service(nworkers=1, batch_max=1) as svc:
                futures = [svc.submit(s) for s in specs]
                # Cancel from the back of the queue: those jobs can't
                # all have dispatched to the single worker yet.
                cancelled = [i for i in range(11, 0, -1)
                             if svc.cancel(specs[i].job_id)]
                results = await asyncio.gather(*futures)
            return cancelled, results

        cancelled, results = asyncio.run(main())
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
