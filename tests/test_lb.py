"""Dynamic load balancing: SFC ordering, assignment, migration, policy."""

import numpy as np
import pytest

from repro.faults import CrashEvent, FaultPlan
from repro.lb import (
    CostMonitor,
    ElementAssignment,
    LoadBalancer,
    RankCost,
    SITE_LB_MONITOR,
    RebalancePolicy,
    capacities_from_costs,
    chunk_bounds,
    cost_imbalance,
    element_ids,
    gather_costs,
    id_to_coords,
    migrate_elements,
    morton_keys,
    refine_bounds,
    sfc_order,
    sfc_partition,
)
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import (
    CMTSolver,
    SolverConfig,
    run_with_recovery,
    sod_problem,
    uniform_state,
)


class TestSFC:
    @pytest.mark.parametrize("shape", [(4, 4, 4), (8, 2, 1), (1, 1, 7),
                                       (3, 5, 2)])
    def test_order_is_permutation(self, shape):
        order = sfc_order(shape)
        n = shape[0] * shape[1] * shape[2]
        assert sorted(order.tolist()) == list(range(n))

    def test_id_coords_roundtrip(self):
        shape = (3, 4, 5)
        ids = np.arange(60)
        assert np.array_equal(
            element_ids(shape, id_to_coords(shape, ids)), ids
        )

    def test_morton_locality(self):
        """Consecutive curve points on a cube are near each other."""
        shape = (8, 8, 8)
        coords = id_to_coords(shape, sfc_order(shape))
        hops = np.abs(np.diff(coords, axis=0)).sum(axis=1)
        # A Morton curve jumps occasionally but the mean hop is small;
        # lex order across a 8x8 plane would average ~2.7.
        assert hops.mean() < 2.5

    def test_keys_unique(self):
        shape = (4, 3, 2)
        coords = id_to_coords(shape, np.arange(24))
        keys = morton_keys(shape, coords)
        assert len(np.unique(keys)) == 24


class TestAssignment:
    def test_identity_overlay_matches_brick(self):
        mesh = BoxMesh(shape=(4, 4, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 2, 1))
        asg = ElementAssignment.from_partition(part)
        for rank in range(4):
            assert asg.local_elements(rank) == part.local_elements(rank)
            assert np.array_equal(
                asg.boundary_mask(rank), part.boundary_mask(rank)
            )

    def test_serialization_roundtrip(self):
        mesh = BoxMesh(shape=(2, 2, 2), n=3)
        owner = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        asg = ElementAssignment(mesh, 2, owner)
        back = ElementAssignment.from_dict(mesh, asg.to_dict())
        assert back.same_as(asg)
        assert back.nel_of(0) == 4

    def test_rejects_empty_rank_and_bad_owner(self):
        mesh = BoxMesh(shape=(2, 2, 1), n=3)
        with pytest.raises(ValueError):
            ElementAssignment(mesh, 2, np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            ElementAssignment(mesh, 2, np.array([0, 1, 1, 5]))


class TestPartitioner:
    def test_uniform_weights_balance(self):
        mesh = BoxMesh(shape=(4, 4, 4), n=3)
        asg = sfc_partition(mesh, 8)
        assert [asg.nel_of(r) for r in range(8)] == [8] * 8

    def test_capacities_skew_counts(self):
        mesh = BoxMesh(shape=(4, 4, 4), n=3)
        cap = np.ones(4)
        cap[0] = 3.0  # rank 0 is 3x faster -> gets more elements
        asg = sfc_partition(mesh, 4, capacities=cap)
        counts = np.array([asg.nel_of(r) for r in range(4)])
        assert counts[0] > counts[1:].max()
        assert counts.min() >= 1

    def test_refine_reduces_bottleneck(self):
        w = np.array([5.0, 1, 1, 1, 1, 1, 1, 5])
        cumw = np.cumsum(w)
        bounds = chunk_bounds(cumw, 2, np.ones(2))
        refined = refine_bounds(cumw, bounds, np.ones(2))

        def bottleneck(b):
            sums = [cumw[b[i + 1] - 1] - (cumw[b[i] - 1] if b[i] else 0.0)
                    for i in range(2)]
            return max(sums)

        assert bottleneck(refined) <= bottleneck(bounds)


class TestPolicy:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(mode="sometimes")
        with pytest.raises(ValueError):
            RebalancePolicy(mode="every", every=0)

    def test_auto_threshold_and_hysteresis(self):
        p = RebalancePolicy(mode="auto", threshold=1.2, min_interval=4)
        assert p.enabled and p.wants_check()
        assert not p.due(10, -10**9, imbalance=1.1)
        assert p.due(10, -10**9, imbalance=1.3)
        # Too soon after the last rebalance, even if imbalanced.
        assert not p.due(10, 8, imbalance=1.3)

    def test_every_and_manual(self):
        p = RebalancePolicy(mode="every", every=3)
        fired = [s for s in range(9) if p.due(s, -10**9, imbalance=1.0)]
        assert fired == [2, 5, 8]
        m = RebalancePolicy(mode="manual")
        assert m.enabled and not m.wants_check()


class TestCost:
    def test_imbalance_and_capacities(self):
        costs = [
            RankCost(rank=0, nel=4, volume_seconds=2.0),
            RankCost(rank=1, nel=4, volume_seconds=1.0),
        ]
        assert cost_imbalance(costs) == pytest.approx(2.0 / 1.5)
        cap = capacities_from_costs(costs)
        assert cap[1] == pytest.approx(2.0 * cap[0])

    def test_monitor_windows(self):
        def main(comm):
            mon = CostMonitor(comm.clock)
            for _ in range(3):
                mon.begin_step()
                comm.compute(seconds=1e-3)
                mon.end_step(nel=4)
            cost = mon.window_cost(comm.rank)
            mon.reset_window()
            return cost, mon.window_steps

        cost, steps = Runtime(nranks=1).run(main)[0]
        assert steps == 0
        assert cost.steps == 3
        assert cost.nel == 4
        assert cost.volume_seconds == pytest.approx(3 * 1e-3)

    def test_monitor_window_nel_is_the_step_average(self):
        def main(comm):
            mon = CostMonitor(comm.clock)
            for nel in (4, 6, 8):
                mon.begin_step()
                comm.compute(seconds=1e-3)
                step = mon.end_step(nel=nel)
            return mon.window_cost(comm.rank), step, len(mon.step_costs)

        cost, last, nsteps = Runtime(nranks=1).run(main)[0]
        assert cost.nel == 6 and cost.steps == 3 and nsteps == 3
        assert last.nel == 8 and last.volume_seconds == pytest.approx(1e-3)

    def test_end_step_without_begin_step_raises(self):
        def main(comm):
            mon = CostMonitor(comm.clock)
            mon.begin_step()
            mon.end_step(nel=1)
            with pytest.raises(RuntimeError, match="without begin_step"):
                mon.end_step(nel=1)

        Runtime(nranks=1).run(main)

    def test_unmeasurable_costs(self):
        empty = RankCost(rank=0, nel=0, volume_seconds=1.0)
        idle = RankCost(rank=1, nel=4, volume_seconds=0.0)
        assert empty.per_element_seconds == 0.0
        assert capacities_from_costs([empty, idle]) is None
        assert cost_imbalance([idle, idle]) == 1.0

    @pytest.mark.parametrize("nranks", [1, 2, 3])
    def test_gather_costs_round_trips_rows(self, nranks):
        """Every rank sees every rank's window, integers exact."""

        def main(comm):
            mon = CostMonitor(comm.clock)
            for _ in range(comm.rank + 1):
                mon.begin_step()
                comm.compute(seconds=(comm.rank + 1) * 1e-3)
                mon.end_step(nel=2 ** 40 + comm.rank)
            return gather_costs(comm, mon), mon.window_cost(comm.rank)

        res = Runtime(nranks=nranks).run(main)
        mine = [own for _, own in res]
        for gathered, _ in res:
            assert gathered == mine

    def test_monitor_rows_stay_40_bytes(self):
        """Every rank's ``LB_monitor`` allgather row is five float64.

        The network model charges a row its size, so the row keeps its
        two unused slots: shrinking it would move the virtual time of
        every load-balanced run.
        """
        setup = sod_problem(
            4, n=5, nelx=32, gs_method="crystal", imbalance=0.4,
            lb_policy=RebalancePolicy(mode="auto", threshold=1.05),
        )

        def main(comm):
            solver, state = setup(comm)
            solver.run(state, 8)

        rt = Runtime(nranks=4)
        rt.run(main)
        for rp in rt.job_profile().rank_profiles:
            rec = rp.records[("MPI_Allgather", SITE_LB_MONITOR)]
            assert rec.count >= 1
            assert rec.bytes_total == 40 * rec.count


class TestMigration:
    def test_element_roundtrip_by_gid(self):
        mesh = BoxMesh(shape=(4, 2, 1), n=3)
        part = Partition(mesh, proc_shape=(2, 1, 1))
        new = ElementAssignment(
            mesh, 2, np.array([0, 0, 0, 1, 1, 0, 1, 1])
        )

        def main(comm):
            asg = ElementAssignment.from_partition(part)
            old_ids = asg.element_ids_of(comm.rank)
            # Field whose value encodes the global element id.
            u = old_ids.astype(np.float64).reshape(1, -1) * 10.0
            out, stats = migrate_elements(
                comm, old_ids, new, [("u", u, 1)]
            )
            return out["u"], stats

        for rank, (u, stats) in enumerate(Runtime(nranks=2).run(main)):
            expect = new.element_ids_of(rank).astype(np.float64) * 10.0
            assert np.array_equal(u.ravel(), expect)
            assert stats.elements_sent >= 1

    def test_load_balancer_moves_work(self):
        """Slow rank sheds elements after a monitored window."""
        mesh = BoxMesh(shape=(4, 2, 2), n=3)
        part = Partition(mesh, proc_shape=(2, 1, 1))
        policy = RebalancePolicy(mode="auto", threshold=1.05,
                                 min_interval=0)

        def main(comm):
            lb = LoadBalancer(
                comm, ElementAssignment.from_partition(part), policy
            )
            slow = 2.0 if comm.rank == 0 else 1.0
            for step in range(4):
                lb.monitor.begin_step()
                comm.compute(seconds=1e-3 * slow)
                lb.monitor.end_step(nel=lb.assignment.nel_of(comm.rank))
            proposal = lb.propose(step=3)
            if proposal is not None:
                lb.commit(proposal, step=3)
            asg = lb.assignment
            return [asg.nel_of(r) for r in range(2)], lb.rebalances

        for counts, rebalances in Runtime(nranks=2).run(main):
            assert rebalances == 1
            assert counts[0] < counts[1]


MESH = BoxMesh(shape=(4, 2, 2), n=4)
PART = Partition(MESH, proc_shape=(4, 1, 1))
DT = 1e-3


def _state():
    st = uniform_state(PART.nel_local, MESH.n, vel=(0.2, 0.1, 0.0))
    st.u[0] += 1e-3 * np.sin(
        np.arange(st.u[0].size)
    ).reshape(st.u[0].shape)
    return st


def _setup_lb(policy):
    def setup(comm):
        solver = CMTSolver(
            comm, PART,
            config=SolverConfig(
                gs_method="pairwise",
                compute_imbalance=0.4,
                lb=policy,
            ),
        )
        return solver, _state()

    return setup


def _fields_by_gid(comm_results):
    fields = {}
    for solver_ids, u in comm_results:
        for k, gid in enumerate(solver_ids):
            fields[int(gid)] = u[:, k]
    return fields


class TestSolverIntegration:
    def test_bitwise_identity_vs_static(self):
        """LB on, fault-free == LB off, compared by global element id."""

        def run(policy):
            def main(comm):
                solver, st = _setup_lb(policy)(comm)
                final = solver.run(st, nsteps=10, dt=DT)
                return solver.local_element_ids(), final.u

            return _fields_by_gid(Runtime(nranks=4).run(main))

        off = run(None)
        on = run(RebalancePolicy(mode="every", every=4, min_interval=0))
        assert off.keys() == on.keys()
        for gid in off:
            assert np.array_equal(off[gid], on[gid])

    def test_rebalance_fires_in_run_loop(self):
        policy = RebalancePolicy(mode="every", every=4, min_interval=0)

        def main(comm):
            solver, st = _setup_lb(policy)(comm)
            solver.run(st, nsteps=6, dt=DT)
            return solver.lb.rebalances, solver.nel

        res = Runtime(nranks=4).run(main)
        assert all(r >= 1 for r, _nel in res)
        # The injected imbalance skews the layout away from uniform.
        assert sorted(nel for _r, nel in res) != [4, 4, 4, 4]

    def test_crash_recovery_restores_rebalanced_layout(self, tmp_path):
        """Restart from a post-rebalance checkpoint matches fault-free."""
        policy = RebalancePolicy(mode="every", every=3, min_interval=0)
        plan = FaultPlan(crashes=(CrashEvent(rank=1, step=7),))
        faulty, rep = run_with_recovery(
            _setup_lb(policy), nranks=4, nsteps=10, dt=DT,
            checkpoint_every=2, checkpoint_dir=tmp_path / "ck",
            fault_plan=plan,
        )
        clean, _ = run_with_recovery(
            _setup_lb(policy), nranks=4, nsteps=10, dt=DT,
        )
        assert len(rep.attempts) == 2
        for a, b in zip(clean, faulty):
            assert np.array_equal(a.u, b.u)
