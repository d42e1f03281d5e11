"""Fault injection, crash recovery, and deterministic replay.

Covers the resilience subsystem end to end: the :class:`FaultPlan` spec
grammar, the Young/Daly checkpoint-interval model, deterministic replay
of lossy/degraded runs across all three gather-scatter methods, the
crash-recovery restart loop (bitwise-identical physics plus lost-work
accounting), abort propagation out of blocked waits, and a seeded chaos
sweep that must always terminate.
"""

import time as wallclock

import numpy as np
import pytest

from repro.faults import CrashEvent, DegradeEvent, DropEvent, FaultPlan, drop_unit
from repro.gs import gs_op_begin, gs_op_finish, gs_setup
from repro.mesh import BoxMesh, Partition
from repro.mpi import RankCrashError, Runtime, SUM
from repro.perfmodel import MachineModel
from repro.perfmodel.machine import IO_BANDWIDTH
from repro.solver import (
    CMTSolver,
    SolverConfig,
    run_with_recovery,
    uniform_state,
)

MESH = BoxMesh(shape=(4, 2, 2), n=4)
PART = Partition(MESH, proc_shape=(2, 1, 1))
DT = 1e-3


def _initial_state():
    st = uniform_state(PART.nel_local, MESH.n, vel=(0.2, 0.0, 0.0))
    st.u[0] += 1e-3 * np.sin(
        np.arange(st.u[0].size)
    ).reshape(st.u[0].shape)
    return st


def _setup(gs_method="pairwise"):
    def setup(comm):
        solver = CMTSolver(
            comm, PART, config=SolverConfig(gs_method=gs_method)
        )
        return solver, _initial_state()

    return setup


def _run_solver(gs_method, plan, nsteps=4):
    """(per-rank fields, per-rank clock totals) of one direct launch."""

    def main(comm):
        solver = CMTSolver(
            comm, PART, config=SolverConfig(gs_method=gs_method)
        )
        return solver.run(_initial_state(), nsteps=nsteps, dt=DT).u

    rt = Runtime(nranks=2, fault_plan=plan)
    fields = rt.run(main)
    return fields, [s.total for s in rt.clock_stats()]


# ---------------------------------------------------------------------------
# fault-plan spec grammar
# ---------------------------------------------------------------------------


class TestFaultPlanSpec:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "crash:rank=1,step=5;"
            "crash:rank=0,time=2.5e-3;"
            "drop:src=0,dst=1,nth=3;"
            "drop:p=0.02;"
            "degrade:factor=4,src=2,dst=3",
            seed=7,
        )
        assert plan.crashes == (
            CrashEvent(rank=1, step=5),
            CrashEvent(rank=0, time=2.5e-3),
        )
        assert plan.drops == (
            DropEvent(src=0, dst=1, nth=3),
            DropEvent(p=0.02),
        )
        assert plan.degrades == (DegradeEvent(factor=4.0, src=2, dst=3),)
        assert plan.seed == 7

    def test_spec_round_trips(self):
        plan = FaultPlan.parse(
            "crash:rank=1,step=5;drop:src=0,dst=1,nth=3;degrade:factor=2"
        )
        again = FaultPlan.parse(plan.spec())
        assert again.events == plan.events

    @pytest.mark.parametrize("bad", [
        "crash:rank=1",                    # no trigger
        "crash:rank=1,step=2,time=1.0",    # both triggers
        "crash:step=2",                    # no rank
        "crash:rank=nope,step=2",          # non-integer
        "drop:src=0",                      # no nth/p
        "drop:nth=0",                      # nth is 1-based
        "drop:p=1.5",                      # p out of range
        "degrade:src=0,dst=1",             # no factor
        "degrade:factor=0.5",              # factor < 1
        "blowup:x=1",                      # unknown kind
        "crash:rank=1,step=5,when=now",    # unknown key
        "crash rank=1",                    # malformed pair
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError, match="fault"):
            FaultPlan.parse(bad)

    def test_random_plans_are_seed_deterministic(self):
        assert FaultPlan.random(7, 4, 20) == FaultPlan.random(7, 4, 20)
        plans = {FaultPlan.random(s, 4, 20) for s in range(10)}
        assert len(plans) > 1

    def test_without_disarms_fired_crash(self):
        fired = CrashEvent(rank=1, step=5)
        plan = FaultPlan(crashes=(fired, CrashEvent(rank=0, step=9)))
        pruned = plan.without(fired)
        assert pruned.crashes == (CrashEvent(rank=0, step=9),)
        # Everything else survives the pruning untouched.
        assert pruned.seed == plan.seed and pruned.drops == plan.drops

    @pytest.mark.parametrize("spec", [
        "crash:rank=5,step=1",
        "drop:src=0,dst=2,nth=1",
        "degrade:factor=2,src=2",
    ])
    def test_runtime_rejects_event_outside_the_job(self, spec):
        """An event naming a rank the job lacks would never fire."""
        with pytest.raises(ValueError, match=f"fault event '{spec}'"):
            Runtime(nranks=2, fault_plan=FaultPlan.parse(spec))

    def test_runtime_accepts_events_inside_the_job(self):
        plan = FaultPlan.parse(
            "crash:rank=1,step=1;drop:src=0,dst=1,nth=1;degrade:factor=2"
        )
        assert Runtime(nranks=2, fault_plan=plan).faults is not None

    def test_drop_unit_is_a_deterministic_uniform(self):
        a = drop_unit(3, 0, 1, 17, 0)
        assert a == drop_unit(3, 0, 1, 17, 0)
        assert 0.0 <= a < 1.0
        # Each retransmission attempt re-rolls.
        assert a != drop_unit(3, 0, 1, 17, 1)
        assert a != drop_unit(4, 0, 1, 17, 0)


# ---------------------------------------------------------------------------
# Young/Daly checkpoint-interval model
# ---------------------------------------------------------------------------


class TestYoungDaly:
    def test_formula(self):
        tau = MachineModel.young_daly_interval(10.0, 10_000.0)
        assert tau == pytest.approx((2 * 10.0 * 10_000.0) ** 0.5 - 10.0)

    def test_clamped_to_checkpoint_cost(self):
        # MTBF so short the formula goes negative: never checkpoint
        # more often than the checkpoint itself takes.
        assert MachineModel.young_daly_interval(100.0, 1.0) == 100.0

    @pytest.mark.parametrize("c,m", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive_inputs(self, c, m):
        with pytest.raises(ValueError):
            MachineModel.young_daly_interval(c, m)

    def test_checkpoint_seconds(self):
        machine = MachineModel.default()
        t = machine.checkpoint_seconds(10**9)
        assert t == pytest.approx(
            machine.io_latency + 10**9 / IO_BANDWIDTH
        )
        with pytest.raises(ValueError):
            machine.checkpoint_seconds(-1)


# ---------------------------------------------------------------------------
# deterministic replay under drops/degradation (all three gs methods)
# ---------------------------------------------------------------------------


class TestDeterministicReplay:
    PLAN = FaultPlan.parse(
        "drop:src=0,dst=1,nth=1;drop:p=0.03;degrade:factor=3,src=0,dst=1",
        seed=42,
    )

    @pytest.mark.parametrize("gs_method", ["pairwise", "crystal", "allreduce"])
    def test_same_plan_same_bits_same_vtime(self, gs_method):
        """Same seed + plan: bitwise fields and identical clock totals."""
        u1, t1 = _run_solver(gs_method, self.PLAN)
        u2, t2 = _run_solver(gs_method, self.PLAN)
        for a, b in zip(u1, u2):
            np.testing.assert_array_equal(a, b)
        assert t1 == t2

    @pytest.mark.parametrize("gs_method", ["pairwise", "crystal", "allreduce"])
    def test_faults_never_corrupt_physics(self, gs_method):
        """Drops delay delivery (retries) but payloads arrive intact."""
        u_faulty, t_faulty = _run_solver(gs_method, self.PLAN)
        u_clean, t_clean = _run_solver(gs_method, None)
        for a, b in zip(u_faulty, u_clean):
            np.testing.assert_array_equal(a, b)
        # The nth=1 drop guarantees at least one retransmission, so the
        # lossy run is strictly slower on the sending rank.
        assert t_faulty[0] > t_clean[0]

    def test_retry_penalty_is_logged(self):
        def main(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            solver.run(_initial_state(), nsteps=2, dt=DT)

        rt = Runtime(nranks=2, fault_plan=self.PLAN)
        rt.run(main)
        s = rt.faults.summary()
        assert s["messages_dropped"] >= 1
        assert s["retry_penalty_seconds"] > 0.0
        assert s["crashes"] == []
        # The retry time also lands in the clock's side ledger.
        retry = sum(
            st.extra.get("retry_time", 0.0) for st in rt.clock_stats()
        )
        assert retry == pytest.approx(s["retry_penalty_seconds"])


# ---------------------------------------------------------------------------
# crash-recovery restart loop
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_recovery_is_bitwise_and_accounted(self, tmp_path):
        """The ISSUE acceptance run: crash at step 5, checkpoint every 3."""
        plan = FaultPlan.parse("crash:rank=1,step=5")
        res, rep = run_with_recovery(
            _setup(), nranks=2, nsteps=8, dt=DT,
            checkpoint_every=3, checkpoint_dir=tmp_path / "faulty",
            fault_plan=plan,
        )
        ref, ref_rep = run_with_recovery(
            _setup(), nranks=2, nsteps=8, dt=DT,
            checkpoint_every=3, checkpoint_dir=tmp_path / "clean",
        )
        for a, b in zip(res, ref):
            np.testing.assert_array_equal(a.u, b.u)

        assert rep.restarts == 1 and len(rep.attempts) == 2
        first, second = rep.attempts
        assert first.crashed and first.crash_step == 5
        assert first.restored_step == 3       # last complete checkpoint
        assert not second.crashed and second.start_step == 3
        assert rep.steps_lost == 2            # steps 3 and 4 replayed
        assert rep.lost_work_seconds > 0.0
        machine = MachineModel.default()
        assert rep.restart_overhead_seconds == machine.restart_latency
        assert rep.total_virtual_seconds > ref_rep.total_virtual_seconds
        # Fault-free runs take the same path with empty accounting.
        assert ref_rep.restarts == 0 and not ref_rep.crashes
        assert ref_rep.lost_work_seconds == 0.0

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            run_with_recovery(_setup(), nranks=2, nsteps=2, dt=dt)

    def test_campaign_gantt_and_profile(self, tmp_path):
        from repro.analysis import fault_report, render_gantt

        plan = FaultPlan.parse("crash:rank=1,step=5")
        _, rep = run_with_recovery(
            _setup(), nranks=2, nsteps=8, dt=DT,
            checkpoint_every=3, checkpoint_dir=tmp_path,
            fault_plan=plan,
        )
        names = {iv.name for iv in rep.gantt_intervals}
        assert {"run", "run#1", "restart", "lost-work"} <= names
        chart = render_gantt(rep.gantt_intervals)
        assert "rank    0" in chart and "restart" in chart
        # The crashed attempt's FAULT_Crash pseudo-callsite survives in
        # the merged campaign profile.
        report_text = fault_report(rep.campaign_profile())
        assert "FAULT_Crash" in report_text
        assert "IO_Checkpoint" in report_text

    def test_crash_without_checkpoints_replays_from_scratch(self):
        plan = FaultPlan.parse("crash:rank=0,step=2")
        res, rep = run_with_recovery(
            _setup(), nranks=2, nsteps=4, dt=DT, fault_plan=plan,
        )
        ref, _ = run_with_recovery(_setup(), nranks=2, nsteps=4, dt=DT)
        for a, b in zip(res, ref):
            np.testing.assert_array_equal(a.u, b.u)
        assert rep.restarts == 1
        assert rep.attempts[0].restored_step == 0
        assert rep.steps_lost == 2
        # No checkpoint: the whole crashed attempt is lost work.
        assert rep.lost_work_seconds == pytest.approx(
            rep.attempts[0].makespan
        )

    def test_time_triggered_crash_recovers(self):
        # Fires at the first communication call past the deadline —
        # here the very first one the job makes.
        plan = FaultPlan.parse("crash:rank=0,time=1e-9")
        res, rep = run_with_recovery(
            _setup(), nranks=2, nsteps=3, dt=DT, fault_plan=plan,
        )
        ref, _ = run_with_recovery(_setup(), nranks=2, nsteps=3, dt=DT)
        for a, b in zip(res, ref):
            np.testing.assert_array_equal(a.u, b.u)
        assert rep.restarts == 1 and rep.crashes

    def test_max_restarts_exhausted_reraises(self, tmp_path):
        plan = FaultPlan.parse("crash:rank=1,step=1")
        with pytest.raises(RankCrashError):
            run_with_recovery(
                _setup(), nranks=2, nsteps=4, dt=DT,
                checkpoint_every=2, checkpoint_dir=tmp_path,
                fault_plan=plan, max_restarts=0,
            )

    def test_checkpoint_cadence_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_with_recovery(
                _setup(), nranks=2, nsteps=4, dt=DT, checkpoint_every=2,
            )


# ---------------------------------------------------------------------------
# abort propagation out of blocked waits
# ---------------------------------------------------------------------------


class TestAbortPropagation:
    def test_crash_mid_split_phase_unblocks_peer(self):
        """Regression: a crash between gs_op_begin and finish must not
        leave the surviving rank blocked for the watchdog to reap."""
        plan = FaultPlan(crashes=(CrashEvent(rank=1, step=0),))

        def main(comm):
            # rank 0 holds ids [1, 2], rank 1 holds [2, 3]: id 2 shared.
            gids = np.array([comm.rank + 1, comm.rank + 2])
            handle = gs_setup(gids, comm)
            handle.method = "pairwise"
            vals = np.array([1.0, 2.0]) * (comm.rank + 1)
            if comm.rank == 1:
                comm.faults.check_step_crash(comm, 0)
            exchange = gs_op_begin(handle, vals, op=SUM)
            return gs_op_finish(exchange, vals)

        rt = Runtime(nranks=2, fault_plan=plan)
        t0 = wallclock.perf_counter()
        with pytest.raises(RankCrashError):
            rt.run(main)
        # One _WAIT_POLL tick (0.1 s) plus slack — far below the
        # deadlock watchdog, which would raise DeadlockError instead.
        assert wallclock.perf_counter() - t0 < 5.0

    def test_crash_unblocks_blocking_recv(self):
        plan = FaultPlan(crashes=(CrashEvent(rank=1, step=0),))

        def main(comm):
            if comm.rank == 1:
                comm.faults.check_step_crash(comm, 0)
            return comm.recv(source=1)

        rt = Runtime(nranks=2, fault_plan=plan)
        t0 = wallclock.perf_counter()
        with pytest.raises(RankCrashError):
            rt.run(main)
        assert wallclock.perf_counter() - t0 < 5.0

    def test_crash_during_solver_exchange_reraises_crash(self):
        """The full solver path: crash surfaces as RankCrashError (with
        rank/step intact), never as a deadlock or a bare AbortError."""
        plan = FaultPlan.parse("crash:rank=1,step=1")

        def main(comm):
            solver = CMTSolver(
                comm, PART,
                config=SolverConfig(gs_method="pairwise", overlap=True),
            )
            solver.run(_initial_state(), nsteps=3, dt=DT)

        with pytest.raises(RankCrashError) as err:
            Runtime(nranks=2, fault_plan=plan).run(main)
        assert err.value.rank == 1 and err.value.step == 1

    def test_completion_wins_over_abort_consistently(self):
        """``Mailbox.wait_for`` abort-vs-completion ordering: a completed
        operation reports success even when the job abort is also set,
        identically on the fast path (matched before blocking) and
        the slow path (matched while polling).  A completed op is a
        committed local fact; only genuinely-blocked waits raise — the
        rule that keeps post-crash virtual clocks (and the recovery
        loop's lost-work accounting) independent of thread scheduling."""
        import threading

        from repro.mpi.errors import AbortError
        from repro.mpi.transport import Envelope, Mailbox

        box = Mailbox(0)
        env = Envelope(1, 0, 1, 5, None, 0, 0.0, 0)

        # Fast path: both already set -> success, not AbortError.
        abort = threading.Event()
        box.deliver(env)
        done = box.post_recv(1, 1, 5)
        abort.set()
        box.wait_for([done], abort)  # must not raise
        assert not box.blocked

        # The entry check must reject a wait that is not yet complete.
        pending = box.post_recv(1, 1, 5)
        with pytest.raises(AbortError):
            box.wait_for([pending], abort)
        assert not box.blocked

        # Slow path: completion lands while we poll, with the abort
        # flag already up -> still success, same rule as the fast path.
        abort3 = threading.Event()

        def fire():
            abort3.set()  # abort first ...
            box.deliver(env)  # ... completion after: completion still wins

        timer = threading.Timer(0.02, fire)
        timer.start()
        try:
            box.wait_for([pending], abort3)  # must not raise
        finally:
            timer.cancel()
        assert pending.envelope is env
        assert not box.blocked

    def test_thread_abort_wakes_blocked_ranks_once_none_runs(
        self, monkeypatch
    ):
        """The thread backend's abort wakes a blocked rank itself, not at
        the next poll tick (made an hour here), but only once no live
        rank still runs: until then a peer's send may complete the
        wait, and completion still wins."""
        import threading

        from repro.mpi import transport
        from repro.mpi.errors import AbortError
        from repro.mpi.transport import Envelope, Mailbox, WakingAbort

        monkeypatch.setattr(transport, "_WAIT_POLL", 3600.0)

        def blocked_wait(finished):
            """Rank 0 of two blocked on a receive from rank 1."""
            boxes = [Mailbox(0), Mailbox(1)]
            abort = WakingAbort(boxes, finished)
            pending = boxes[0].post_recv(1, 1, 5)
            outcome = []

            def wait():
                try:
                    boxes[0].wait_for([pending], abort)
                    outcome.append("done")
                except AbortError:
                    outcome.append("aborted")

            t = threading.Thread(target=wait, daemon=True)
            t.start()
            while not boxes[0].blocked:
                wallclock.sleep(0.001)
            return boxes[0], abort, t, outcome

        # Rank 1 still runs: the abort leaves rank 0 blocked, and rank
        # 1's send then completes the wait.
        finished = [False, False]
        box, abort, t, outcome = blocked_wait(finished)
        abort.set()
        t.join(timeout=0.2)
        assert t.is_alive()
        box.deliver(Envelope(1, 0, 1, 5, None, 0, 0.0, 0))
        t.join(timeout=10.0)
        assert outcome == ["done"]

        # Rank 1 has finished, so nothing can complete the wait: the
        # abort wakes rank 0 at once, whether it is set after rank 1
        # finished or rank 1 finishes after it was set.
        box, abort, t, outcome = blocked_wait([False, True])
        abort.set()
        t.join(timeout=10.0)
        assert outcome == ["aborted"]
        finished = [False, False]
        box, abort, t, outcome = blocked_wait(finished)
        abort.set()
        finished[1] = True
        abort.release()
        t.join(timeout=10.0)
        assert outcome == ["aborted"]


# ---------------------------------------------------------------------------
# chaos sweep
# ---------------------------------------------------------------------------


class TestChaos:
    @pytest.fixture(scope="class")
    def clean_fields(self):
        def main(comm):
            solver = CMTSolver(
                comm, PART, config=SolverConfig(gs_method="pairwise")
            )
            return solver.run(_initial_state(), nsteps=6, dt=DT).u

        return Runtime(nranks=2).run(main)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_plan_always_terminates_and_matches(
        self, seed, tmp_path, clean_fields
    ):
        """Any seeded random plan either completes or aborts cleanly —
        never deadlocks — and recovery restores exact physics."""
        plan = FaultPlan.random(seed, nranks=2, nsteps=6)
        res, rep = run_with_recovery(
            _setup(), nranks=2, nsteps=6, dt=DT,
            checkpoint_every=2, checkpoint_dir=tmp_path,
            fault_plan=plan,
        )
        for a, b in zip(res, clean_fields):
            np.testing.assert_array_equal(a.u, b)
        # Crashes may coincide (several firing in one attempt), but a
        # plan with crashes always costs at least one restart and never
        # more than one per scheduled event.
        assert (rep.restarts >= 1) == bool(plan.crashes)
        assert rep.restarts <= len(plan.crashes)
