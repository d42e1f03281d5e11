"""Execution backends: procs and sockets vs the threads reference.

Every backend must be a drop-in replacement: same results, same
error/deadlock/crash semantics, and *identical* virtual-time and
profile numbers (they are pure functions of the machine model, never of
wall-clock scheduling).  These tests run the same jobs under all
backends and compare, and exercise the backend-specific machinery —
shared memory rings (including oversize fragments) for procs, the socket
mesh / rendezvous / heartbeat path for sockets, exit-record
marshalling, process-safe abort, and the recovery loop (abort,
injected-crash recovery, checkpoint/restart, real rank kills).
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.mpi import (
    ANY_SOURCE,
    DeadlockError,
    MPIError,
    ProcsBackend,
    RankCrashError,
    Runtime,
    ThreadsBackend,
    available_backends,
    spmd,
)
from repro.mpi.backend import resolve_backend
from repro.net import SocketBackend

BACKENDS = ("threads", "procs", "sockets")


class TestSelection:
    def test_available(self):
        assert available_backends() == ["procs", "sockets", "threads"]

    def test_resolve_name_and_instance(self):
        assert isinstance(resolve_backend("threads"), ThreadsBackend)
        assert isinstance(resolve_backend("procs"), ProcsBackend)
        assert isinstance(resolve_backend("sockets"), SocketBackend)
        inst = ProcsBackend(ring_capacity=1 << 16)
        assert resolve_backend(inst) is inst

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(MPIError, match="procs, sockets, threads"):
            resolve_backend("gpu")

    def test_unknown_backend_rejected(self):
        with pytest.raises(MPIError, match="unknown backend"):
            Runtime(nranks=2, backend="gpu")

    def test_runtime_exposes_backend(self):
        assert Runtime(nranks=1).backend.name == "threads"
        assert Runtime(nranks=1, backend="procs").backend.name == "procs"

    def test_spmd_backend_kwarg(self):
        assert spmd(2, lambda comm: comm.rank, backend="procs") == [0, 1]


class TestProcsBasics:
    def test_results_in_rank_order(self):
        res = Runtime(nranks=4, backend="procs").run(
            lambda comm: comm.rank * 10
        )
        assert res == [0, 10, 20, 30]

    def test_args_kwargs_forwarded(self):
        def main(comm, a, b=0):
            return a + b + comm.rank

        res = Runtime(nranks=2, backend="procs").run(
            main, args=(5,), kwargs={"b": 7}
        )
        assert res == [12, 13]

    def test_single_rank(self):
        assert Runtime(nranks=1, backend="procs").run(
            lambda comm: comm.rank
        ) == [0]

    def test_numpy_payloads(self):
        def main(comm):
            other = 1 - comm.rank
            comm.send(np.full(100, comm.rank, dtype=float), dest=other)
            return float(comm.recv(source=other).sum())

        assert Runtime(nranks=2, backend="procs").run(main) == [100.0, 0.0]

    def test_collectives(self):
        def main(comm):
            total = comm.allreduce(comm.rank)
            gathered = comm.allgather(comm.rank)
            return total, gathered

        res = Runtime(nranks=4, backend="procs").run(main)
        assert res == [(6, [0, 1, 2, 3])] * 4

    def test_large_message_spills(self):
        """Payloads bigger than the ring cross it as fragments."""
        backend = ProcsBackend(ring_capacity=1 << 14)  # 16 KiB ring

        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(100_000, dtype=float), dest=1)
                return None
            return float(comm.recv(source=0).sum())

        res = Runtime(nranks=2, backend=backend).run(main)
        assert res[1] == float(np.arange(100_000).sum())

    def test_many_messages_wrap_the_ring(self):
        """Sustained traffic must wrap the ring buffer correctly."""
        backend = ProcsBackend(ring_capacity=1 << 13)  # 8 KiB ring

        def main(comm):
            if comm.rank == 0:
                for i in range(200):
                    comm.send(np.full(64, i, dtype=float), dest=1, tag=i % 7)
                return None
            total = 0.0
            for i in range(200):
                total += float(comm.recv(source=0, tag=i % 7)[0])
            return total

        res = Runtime(nranks=2, backend=backend).run(main)
        assert res[1] == float(sum(range(200)))


class TestParity:
    """Virtual-time/profile metrics must be identical across backends."""

    @staticmethod
    def _job(comm):
        comm.compute(seconds=0.001 * (comm.rank + 1))
        comm.barrier()
        part = comm.allreduce(np.ones(50) * comm.rank)
        comm.alltoall([comm.rank % 2] * comm.size)
        comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=3)
        comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
        return float(part.sum())

    def _run(self, backend):
        rt = Runtime(nranks=4, backend=backend, trace_messages=True)
        res = rt.run(self._job)
        return rt, res

    @pytest.mark.parametrize("backend", [b for b in BACKENDS
                                         if b != "threads"])
    def test_clock_profile_and_trace_identical(self, backend):
        rt_t, res_t = self._run("threads")
        rt_p, res_p = self._run(backend)
        assert res_t == res_p
        for a, b in zip(rt_t.clock_stats(), rt_p.clock_stats()):
            assert (a.total, a.compute, a.comm, a.hidden_comm) == (
                b.total, b.compute, b.comm, b.hidden_comm
            )
        assert rt_t.job_profile().mpi_time == rt_p.job_profile().mpi_time
        assert rt_t.trace.events() == rt_p.trace.events()

    def test_cmtbone_proxy_identical(self):
        from repro.core import CMTBoneConfig, launch_cmtbone

        cfg = CMTBoneConfig(
            n=6, local_shape=(2, 2, 2), nsteps=3, work_mode="proxy",
            gs_method="pairwise", monitor_every=1,
        )
        per_backend = {}
        for backend in BACKENDS:
            results, _rt = launch_cmtbone(cfg, nranks=4, backend=backend)
            per_backend[backend] = [
                (r.vtime_total, r.vtime_comm, tuple(r.monitor_values))
                for r in results
            ]
        for backend in BACKENDS[1:]:
            assert per_backend["threads"] == per_backend[backend]


def _die(how):
    if how == "exit":
        os._exit(17)
    os.kill(os.getpid(), signal.SIGKILL)


class TestFailures:
    """One failure contract, every backend that can meet it."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exception_reraised_with_rank(self, backend):
        def main(comm):
            if comm.rank == 2:
                raise RuntimeError("boom on 2")
            comm.barrier()

        with pytest.raises(MPIError, match=r"rank 2 failed:(.|\n)*boom on 2"):
            Runtime(nranks=4, backend=backend).run(main)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blocked_peers_released_on_error(self, backend):
        def main(comm):
            if comm.rank == 0:
                raise ValueError("dead on arrival")
            comm.recv(source=0)

        with pytest.raises(MPIError, match="dead on arrival"):
            Runtime(nranks=3, backend=backend).run(main)

    # Deadlock on thread ranks: tests/test_mpi_runtime.py.
    @pytest.mark.parametrize("backend", ["procs", "sockets"])
    def test_deadlock_detected(self, backend):
        def main(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=1)

        rt = Runtime(nranks=2, backend=backend)
        with pytest.raises(DeadlockError):
            rt.run(main)
        assert rt.deadlock_report is not None
        assert "rank" in rt.deadlock_report

    @pytest.mark.parametrize("backend", ["procs", "sockets"])
    def test_single_rank_deadlock_detected(self, backend):
        with pytest.raises(DeadlockError):
            Runtime(nranks=1, backend=backend).run(
                lambda comm: comm.recv(source=0)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slow_live_rank_is_not_a_deadlock(self, backend):
        """A rank that computes longer than the deadlock rule's three
        strikes while its peer waits on it is live, not stuck."""

        def main(comm):
            if comm.rank == 1:
                time.sleep(2.5)
                comm.send("late", dest=0)
                return None
            return comm.recv(source=1)

        assert Runtime(nranks=2, backend=backend).run(main) == ["late", None]

    @pytest.mark.parametrize("how", ["exit", "kill"])
    @pytest.mark.parametrize(
        "backend, error",
        [("procs", MPIError), ("sockets", RankCrashError)],
    )
    def test_hard_death_reported(self, backend, error, how):
        """A rank that dies without an exit record must not hang the
        job.  On procs that is fatal; over sockets a vanished remote
        process is a crash the recovery loop can replay, so the dead
        rank is identified."""

        def main(comm):
            if comm.rank == 1:
                _die(how)
            comm.recv(source=1 - comm.rank, tag=0)

        with pytest.raises(error, match="terminated unexpectedly") as exc:
            Runtime(nranks=2, backend=backend).run(main)
        assert type(exc.value) is error
        if error is RankCrashError:
            assert exc.value.rank == 1

    @pytest.mark.parametrize("backend", ["procs", "sockets"])
    def test_unpicklable_result_reported(self, backend):
        def main(comm):
            return lambda: None  # lambdas don't pickle

        with pytest.raises(MPIError, match="picklable"):
            Runtime(nranks=2, backend=backend).run(main)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_injected_crash_marshalled(self, backend):
        plan = FaultPlan.parse("crash:rank=1,step=2")
        rt = Runtime(nranks=3, backend=backend, fault_plan=plan)

        def main(comm):
            for step in range(5):
                comm.faults.check_step_crash(comm, step)
                comm.barrier()
            return "done"

        with pytest.raises(RankCrashError) as exc:
            rt.run(main)
        assert exc.value.rank == 1
        assert exc.value.step == 2
        # The parent-side injector sees the child's fired crash, which
        # is what the recovery loop uses to disarm it on restart.
        assert [c.rank for c in rt.faults.fired_crashes] == [1]
        assert len(rt.faults.summary()["crashes"]) == 1

    @pytest.mark.parametrize("backend", ["procs", "sockets"])
    def test_link_startup_failure_ships_a_record(self, backend, monkeypatch):
        """A child that fails *before* ``run_rank`` — its transport does
        not come up — still reports, and its peers are released within a
        poll tick instead of waiting out a timeout."""
        from repro.mpi.backend import ShmLink
        from repro.net.agent import MeshLink

        link = {"procs": ShmLink, "sockets": MeshLink}[backend]
        real_start = link.start

        def start(self, local_box):
            real_start(self, local_box)
            if self._rank == 1:
                raise OSError("link start-up failed")

        monkeypatch.setattr(link, "start", start)  # inherited by forks
        t0 = time.monotonic()
        with pytest.raises(
            MPIError, match=r"rank 1 failed:(.|\n)*link start-up failed"
        ):
            Runtime(nranks=3, backend=backend).run(
                lambda comm: comm.recv(source=1)
            )
        assert time.monotonic() - t0 < 10.0


class TestNoWatchdogThread:
    """The deadlock rule runs in the parent's own wait loop: a job
    starts its rank threads (threads) or nothing (procs), no more."""

    def test_threads_job_starts_one_thread_per_rank(self):
        def main(comm):
            comm.barrier()
            count = threading.active_count()
            comm.barrier()
            return count

        before = threading.active_count()
        assert Runtime(nranks=2).run(main) == [before + 2] * 2

    def test_procs_parent_starts_no_thread(self, monkeypatch):
        seen = []
        collect = ProcsBackend._collect

        def sampled(*args):
            seen.append(threading.active_count())
            return collect(*args)

        monkeypatch.setattr(ProcsBackend, "_collect", staticmethod(sampled))
        before = threading.active_count()
        Runtime(nranks=2, backend="procs").run(lambda comm: comm.barrier())
        assert seen == [before]


class TestProcsAbortFence:
    """White-box: the abort determinism fence (`FencedAbort` over
    `ShmLink`).

    A crashing rank's ``set()`` must not become visible to survivors
    until every envelope the rank pushed has been drained into its
    peers' mailboxes — otherwise "which of the dead rank's last
    messages arrived" is a scheduling accident and recovery reports
    diverge from the threads backend.
    """

    @staticmethod
    def _job(n=2):
        import multiprocessing as mp

        from repro.mpi.backend import _ShmJob

        return _ShmJob(mp.get_context("fork"), n, 1 << 16)

    def test_set_waits_until_sent_envelopes_are_delivered(self):
        import threading

        from repro.mpi.backend import ShmLink
        from repro.mpi.shm import dump_envelope
        from repro.mpi.transport import Envelope

        job = self._job()
        delivered = []

        class SlowBox:
            blocked, delivered = False, 0  # what _drain publishes

            @staticmethod
            def deliver(env):
                time.sleep(0.2)  # hold the race window wide open
                delivered.append(env.payload)

        receiver = ShmLink(job, 1, None)
        drain = threading.Thread(
            target=receiver._drain, args=(SlowBox(),), daemon=True
        )
        drain.start()
        try:
            job.rings[1].push(dump_envelope(
                Envelope(0, 1, 1, 0, "last words", 10, 0.0, 0)
            ))
            ShmLink(job, 0, None).abort.set()
            assert job.abort.is_set()
            # set() returning means delivery already happened — no
            # sleep/retry needed here, which is exactly the property.
            assert delivered == ["last words"]
        finally:
            receiver.retire()
            drain.join()
            for ring in job.rings:
                ring.destroy()

    def test_finished_peer_does_not_stall_the_fence(self):
        from repro.mpi.backend import ShmLink

        job = self._job()
        job.finished[1] = 1  # peer already done; its delivery thread is gone
        try:
            start = time.monotonic()
            ShmLink(job, 0, None).abort.set()
            assert job.abort.is_set()
            assert time.monotonic() - start < 2.0
        finally:
            for ring in job.rings:
                ring.destroy()


class TestProcsRecovery:
    """Satellite: abort, crash recovery, checkpoint/restart on procs."""

    def test_clock_stats_available_after_crash(self):
        """The recovery loop charges lost work from post-crash clocks."""
        plan = FaultPlan.parse("crash:rank=0,step=1")
        rt = Runtime(nranks=2, backend="procs", fault_plan=plan)

        def main(comm):
            for step in range(3):
                comm.compute(seconds=0.01)
                comm.faults.check_step_crash(comm, step)
                comm.barrier()

        with pytest.raises(RankCrashError):
            rt.run(main)
        stats = rt.clock_stats()
        assert max(s.total for s in stats) > 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_with_recovery_checkpoint_restart(self, tmp_path, backend):
        """Full campaign: crash, restore from checkpoint, finish —
        bitwise identical to a fault-free run, on either backend."""
        from repro.solver import sod_problem
        from repro.solver import run_with_recovery

        setup = sod_problem(2, n=5, nelx=8, gs_method="pairwise")
        common = dict(nranks=2, nsteps=8, dt=2e-4)
        plan = FaultPlan.parse("crash:rank=1,step=5")
        faulty, report = run_with_recovery(
            setup,
            checkpoint_every=3,
            checkpoint_dir=tmp_path / backend,
            fault_plan=plan,
            backend=backend,
            **common,
        )
        assert report.restarts == 1
        assert report.crashes
        clean, _ = run_with_recovery(setup, backend=backend, **common)
        for a, b in zip(clean, faulty):
            np.testing.assert_array_equal(a.u, b.u)

    def test_recovery_report_identical_across_backends(self, tmp_path):
        """The whole virtual-time campaign accounting must agree."""
        from repro.solver import sod_problem
        from repro.solver import run_with_recovery

        setup = sod_problem(2, n=5, nelx=8, gs_method="pairwise")
        reports = {}
        for backend in BACKENDS:
            _, reports[backend] = run_with_recovery(
                setup,
                nranks=2,
                nsteps=6,
                dt=2e-4,
                checkpoint_every=2,
                checkpoint_dir=tmp_path / backend,
                fault_plan=FaultPlan.parse("crash:rank=0,step=3"),
                backend=backend,
            )
        a = reports["threads"]
        for backend in BACKENDS[1:]:
            b = reports[backend]
            assert a.total_virtual_seconds == b.total_virtual_seconds
            assert a.lost_work_seconds == b.lost_work_seconds
            assert a.steps_lost == b.steps_lost
            assert a.restarts == b.restarts


def _kill_wrapped_setup(setup, flag_path, kill_call):
    """Wrap a ``setup(comm)`` factory so rank 1 SIGKILLs itself on its
    ``kill_call``-th solver step — once (the flag file survives the
    restart, so the replay attempt runs clean)."""

    def wrapped(comm):
        solver, state = setup(comm)
        if comm.rank == 1 and not os.path.exists(flag_path):
            orig = solver.step
            calls = {"n": 0}

            def step(state, dt):
                calls["n"] += 1
                if calls["n"] == kill_call:
                    with open(flag_path, "w"):
                        pass
                    os.kill(os.getpid(), signal.SIGKILL)
                return orig(state, dt)

            solver.step = step
        return solver, state

    return wrapped


_RENDEZVOUS_CANARY_HITS = []


def _trip_rendezvous_canary():
    _RENDEZVOUS_CANARY_HITS.append(1)


class _EvilHello:
    """Unpickling this records the fact — it must never happen."""

    def __reduce__(self):
        return (_trip_rendezvous_canary, ())


class _AlwaysAliveProc:
    """Stand-in for a process handle liveness polling cannot see
    through — the local ssh client of a wedged remote agent."""

    exitcode = None

    def is_alive(self):
        return True

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class TestSockets:
    """Sockets-specific machinery: rendezvous, families, hosts, a real
    rank kill (the shared failure contract is ``TestFailures``)."""

    def test_stray_connections_cannot_kill_job(self, monkeypatch):
        """Garbage thrown at the rendezvous port — a pickled payload
        without AUTH, a wrong token — is dropped per-connection: it is
        never unpickled and the job completes normally."""
        import pickle
        import threading

        import repro.net.backend as nb
        from repro.net.wire import AUTH, HELLO, TransportError
        from repro.net.wire import connect as wire_connect

        captured = {}
        real_make_listener = nb.make_listener

        def spy(*args, **kwargs):
            sock, addr = real_make_listener(*args, **kwargs)
            captured.setdefault("addr", addr)  # first = rendezvous
            return sock, addr

        monkeypatch.setattr(nb, "make_listener", spy)

        def probe(frames):
            """Send frames, then read until the driver drops us."""
            fs = wire_connect(captured["addr"])
            try:
                for kind, body in frames:
                    fs.send_frame(kind, body)
                return fs.recv_frame(timeout=15.0)
            except TransportError:
                return None
            finally:
                fs.close()

        outcomes = {}

        def attack():
            deadline = time.monotonic() + 15.0
            while "addr" not in captured:
                if time.monotonic() > deadline:
                    return
                time.sleep(0.002)
            evil = pickle.dumps(_EvilHello())
            outcomes["hello_before_auth"] = probe([(HELLO, evil)])
            outcomes["wrong_token"] = probe(
                [(AUTH, b"wrong"), (HELLO, evil)]
            )

        attacker = threading.Thread(target=attack, daemon=True)
        attacker.start()

        def main(comm):
            time.sleep(0.5)  # keep the monitor up while strays poke it
            return comm.allreduce(comm.rank)

        res = Runtime(nranks=2, backend="sockets").run(main)
        attacker.join(timeout=30.0)
        assert res == [1, 1]
        assert not attacker.is_alive()
        # Both strays were dropped (driver closed the connection)...
        assert outcomes == {"hello_before_auth": None,
                            "wrong_token": None}
        # ...and their pickled bodies were never loaded.
        assert _RENDEZVOUS_CANARY_HITS == []

    def test_rank_dead_before_dialing_is_reported_at_once(self, monkeypatch):
        """A rank that dies before it dials its peers is reported as its
        own crash within seconds: the survivors' mesh accept loops give
        up on the driver's ABORT instead of timing out."""
        import repro.net.agent as agent

        build_mesh = agent._build_mesh

        def dies_before_dialing(rank, *args):
            if rank == 2:
                os._exit(1)
            return build_mesh(rank, *args)

        monkeypatch.setattr(agent, "_build_mesh", dies_before_dialing)
        t0 = time.monotonic()
        with pytest.raises(RankCrashError) as exc:
            Runtime(nranks=3, backend="sockets").run(
                lambda comm: comm.barrier()
            )
        assert exc.value.rank == 2
        assert time.monotonic() - t0 < 5.0

    def test_never_heartbeating_rank_trips_hb_timeout(self):
        """A rank that wedges after rendezvous but before its *first*
        HEARTBEAT must still be declared dead by hb_timeout — process
        liveness polling cannot see through an ssh client."""
        import pickle
        import threading

        from repro.net.wire import AUTH, HELLO, make_listener
        from repro.net.wire import connect as wire_connect

        token = "tok"
        backend = SocketBackend(hb_timeout=0.5)
        runtime = Runtime(nranks=1, backend=backend)
        listener, addr = make_listener("tcp")

        def wedged_agent():
            fs = wire_connect(addr)
            fs.send_frame(AUTH, token.encode("ascii"))
            fs.send_frame(HELLO, pickle.dumps({
                "rank": 0, "listen": ("tcp", "127.0.0.1", 1),
                "host": "ghost", "pid": 0, "external": False,
            }))
            fs.recv_frame(timeout=15.0)  # WELCOME
            time.sleep(3.0)  # wedge: no heartbeat, no exit record
            fs.close()

        agent = threading.Thread(target=wedged_agent, daemon=True)
        agent.start()
        out = {}
        monitor = threading.Thread(
            target=lambda: out.setdefault("res", backend._monitor(
                runtime, listener, token, [_AlwaysAliveProc()], None,
            )),
            daemon=True,
        )
        monitor.start()
        monitor.join(timeout=10.0)
        assert not monitor.is_alive(), \
            "hb_timeout backstop never fired for a silent rank"
        records, fired = out["res"]
        assert records[0].get("hard_exit") is True
        assert not fired
        listener.close()

    def test_results_and_numpy_payloads(self):
        def main(comm):
            other = (comm.rank + 1) % comm.size
            comm.send(np.full(100, comm.rank, dtype=float), dest=other)
            got = comm.recv(source=(comm.rank - 1) % comm.size)
            return float(got.sum())

        res = Runtime(nranks=4, backend="sockets").run(main)
        assert res == [300.0, 0.0, 100.0, 200.0]

    def test_unix_family(self):
        backend = SocketBackend(family="unix")
        res = Runtime(nranks=3, backend=backend).run(
            lambda comm: comm.allreduce(comm.rank)
        )
        assert res == [3, 3, 3]

    def test_single_rank(self):
        assert Runtime(nranks=1, backend="sockets").run(
            lambda comm: comm.rank
        ) == [0]

    def test_loopback_hosts_set_host_id(self):
        """Loopback host labels flow into the autotune fingerprint."""

        def main(comm):
            from repro.autotune import host_fingerprint

            return host_fingerprint().split("/")[0]

        backend = SocketBackend(
            hosts=["nodeA", "nodeA", "nodeB"], loopback=True
        )
        res = Runtime(nranks=3, backend=backend).run(main)
        assert res == ["nodeA", "nodeA", "nodeB"]

    def test_rank_kill_recovered_from_checkpoint(self, tmp_path):
        """A real mid-run SIGKILL of a remote rank: run_with_recovery
        restores the last checkpoint and the final fields are bitwise
        identical to a clean run."""
        from repro.solver import sod_problem
        from repro.solver import run_with_recovery

        setup = sod_problem(2, n=5, nelx=8, gs_method="pairwise")
        common = dict(nranks=2, nsteps=8, dt=2e-4, backend="sockets")
        killed = _kill_wrapped_setup(
            setup, str(tmp_path / "killed.flag"), kill_call=5
        )
        faulty, report = run_with_recovery(
            killed,
            checkpoint_every=3,
            checkpoint_dir=tmp_path / "ckpt",
            **common,
        )
        assert report.restarts == 1
        assert any("terminated unexpectedly" in c for c in report.crashes)
        clean, _ = run_with_recovery(setup, **common)
        for a, b in zip(clean, faulty):
            np.testing.assert_array_equal(a.u, b.u)
