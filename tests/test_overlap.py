"""Split-phase overlapped pipeline: correctness and accounting.

The two contracts of the overlap work (see docs/virtual-time.md,
"Overlap accounting"):

* physics under ``overlap=True`` is **bitwise identical** to the
  blocking schedule — checked here on raw gather-scatter exchanges,
  the CMT-bone mini-app, and the full multi-rank Sod shock tube;
* the modelled step time never increases, and communication hidden
  under interior compute is credited to ``hidden_comm_time`` instead
  of extending the step.
"""

import numpy as np
import pytest

from repro.core import CMTBoneConfig, run_cmtbone
from repro.gs import gs_op, gs_op_begin, gs_op_finish, gs_setup
from repro.mesh import BoxMesh, Partition
from repro.mesh.numbering import dg_face_numbering
from repro.mpi import MAX, SUM, Runtime
from repro.mpi import waitall as mpi_waitall
from repro.solver import CMTSolver, ShockFilter, SolverConfig, from_primitives
from repro.solver.boundary import BoundarySpec
from repro.solver.riemann import SOD_LEFT, SOD_RIGHT


class TestWaitall:
    def test_waitall_orders_payloads(self):
        def main(comm):
            reqs = [
                comm.irecv(source=(comm.rank + d) % comm.size, tag=d)
                for d in (1, 2)
            ]
            for d in (1, 2):
                comm.isend(
                    comm.rank * 10 + d,
                    dest=(comm.rank - d) % comm.size,
                    tag=d,
                )
            return mpi_waitall(reqs)

        res = Runtime(nranks=3).run(main)
        for rank, payloads in enumerate(res):
            assert payloads == [
                ((rank + 1) % 3) * 10 + 1, ((rank + 2) % 3) * 10 + 2
            ]

    def test_incomplete_then_waitall(self):
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                before = req.test()  # may be False: nothing sent yet
                comm.send(None, dest=1)  # unblock the sender
                payload = mpi_waitall([req])[0]
                return before, payload, req.test()
            comm.recv(source=0)
            comm.send("data", dest=0)
            return None

        before, payload, after = Runtime(nranks=2).run(main)[0]
        assert payload == "data"
        assert after is True


class TestBoundarySplit:
    def test_single_rank_all_interior(self):
        part = Partition(BoxMesh((4, 1, 1), n=4), (1, 1, 1))
        assert part.boundary_local_indices(0).size == 0
        assert list(part.interior_local_indices(0)) == [0, 1, 2, 3]

    def test_x_split_brick(self):
        part = Partition(BoxMesh((8, 1, 1), n=4), (2, 1, 1))
        assert list(part.boundary_local_indices(0)) == [0, 3]
        assert list(part.interior_local_indices(0)) == [1, 2]

    def test_mask_partitions_all_elements(self):
        part = Partition(BoxMesh((4, 4, 4), n=3), (2, 2, 1))
        mask = part.boundary_mask(0)
        assert mask.size == part.nel_local
        both = np.concatenate([
            part.boundary_local_indices(0), part.interior_local_indices(0)
        ])
        assert sorted(both) == list(range(part.nel_local))
        # z is uncut: boundary status must not depend on the z slab.
        lx, ly, lz = part.local_shape
        m3 = mask.reshape(lz, ly, lx)
        assert (m3 == m3[0]).all()

    def test_cut_faces_are_boundary(self):
        part = Partition(BoxMesh((4, 4, 4), n=3), (2, 2, 2))
        lx, ly, lz = part.local_shape
        m3 = part.boundary_mask(0).reshape(lz, ly, lx)
        assert m3[0].all() and m3[-1].all()      # z faces
        assert m3[:, 0].all() and m3[:, -1].all()  # y faces
        assert m3[:, :, 0].all() and m3[:, :, -1].all()  # x faces


MESH_GS = BoxMesh((4, 4, 2), n=4, periodic=(False, True, True))
PART_GS = Partition(MESH_GS, (2, 2, 1))


@pytest.mark.parametrize("method", ["pairwise", "crystal", "allreduce"])
def test_split_phase_matches_blocking(method):
    """gs_op_begin/finish == gs_op, bitwise, for every method."""

    def main(comm):
        gids = dg_face_numbering(PART_GS, comm.rank)
        handle = gs_setup(gids, comm)
        rng = np.random.default_rng(11 + comm.rank)
        u = rng.standard_normal(gids.shape)
        blocking_sum = gs_op(handle, u, SUM, method=method)
        blocking_max = gs_op(handle, u, MAX, method=method)
        ex_sum = gs_op_begin(handle, u, SUM, method=method)
        ex_max = gs_op_begin(handle, u, MAX, method=method, tag=7777)
        comm.compute(flops=1e6)  # overlapped work
        split_sum = gs_op_finish(ex_sum, u)
        split_max = gs_op_finish(ex_max)  # deferred condense from begin
        return (
            np.array_equal(blocking_sum, split_sum),
            np.array_equal(blocking_max, split_max),
        )

    res = Runtime(nranks=4).run(main)
    assert all(a and b for a, b in res)


def test_finish_twice_raises():
    def main(comm):
        gids = dg_face_numbering(PART_GS, comm.rank)
        handle = gs_setup(gids, comm)
        u = np.ones(gids.shape)
        ex = gs_op_begin(handle, u, SUM, method="pairwise")
        gs_op_finish(ex, u)
        try:
            gs_op_finish(ex, u)
        except ValueError:
            return True
        return False

    assert all(Runtime(nranks=4).run(main))


# -- solver: Sod shock tube, blocking vs overlapped ------------------------

N_SOD = 8
MESH_SOD = BoxMesh(shape=(16, 1, 1), n=N_SOD, periodic=(False, True, True),
                   lengths=(1.0, 0.25, 0.25))
PART_SOD = Partition(MESH_SOD, proc_shape=(2, 1, 1))


def _run_sod(overlap, nsteps=30):
    def main(comm):
        left = SOD_LEFT
        right = SOD_RIGHT

        def dirichlet(s):
            e = s.p / 0.4 + 0.5 * s.rho * s.u**2
            return BoundarySpec(
                "dirichlet", state=(s.rho, s.rho * s.u, 0.0, 0.0, e)
            )

        solver = CMTSolver(
            comm, PART_SOD,
            config=SolverConfig(
                gs_method="pairwise",
                cfl=0.3,
                shock_filter=ShockFilter(n=N_SOD, threshold=-6.0, ramp=2.0),
                boundaries={0: dirichlet(left), 1: dirichlet(right)},
                overlap=overlap,
            ),
        )
        coords = np.stack(
            [MESH_SOD.element_nodes(ec)
             for ec in PART_SOD.local_elements(comm.rank)],
            axis=1,
        )
        x = coords[0]
        blend = 0.5 * (1.0 + np.tanh((x - 0.5) / 0.02))
        rho = left.rho + (right.rho - left.rho) * blend
        p = left.p + (right.p - left.p) * blend
        st = from_primitives(rho, np.zeros((3,) + rho.shape), p)
        for _ in range(nsteps):
            st = solver.step(st, solver.stable_dt(st))
        return st.u, comm.clock.now, comm.clock.hidden_comm_time

    return Runtime(nranks=2).run(main)


@pytest.fixture(scope="module")
def sod_pair():
    return _run_sod(False), _run_sod(True)


class TestSodOverlap:
    def test_bitwise_identical_fields(self, sod_pair):
        blocking, overlapped = sod_pair
        for (u_b, _, _), (u_o, _, _) in zip(blocking, overlapped):
            assert np.array_equal(u_b, u_o)

    def test_step_time_never_increases(self, sod_pair):
        blocking, overlapped = sod_pair
        for (_, t_b, _), (_, t_o, _) in zip(blocking, overlapped):
            assert t_o <= t_b * (1 + 1e-12)

    def test_hidden_comm_accounting(self, sod_pair):
        blocking, overlapped = sod_pair
        assert all(h == 0.0 for _, _, h in blocking)
        assert any(h > 0.0 for _, _, h in overlapped)


# -- mini-app: real-mode monitor equality ---------------------------------

def test_cmtbone_overlap_matches_blocking():
    cfg = CMTBoneConfig(
        n=6, local_shape=(2, 2, 2), nsteps=3, gs_method="pairwise",
        work_mode="real",
    )

    def run(overlap):
        rt = Runtime(nranks=4)
        return rt.run(run_cmtbone, args=(cfg.with_(overlap=overlap),))

    blocking = run(False)
    overlapped = run(True)
    for b, o in zip(blocking, overlapped):
        assert b.monitor_values == o.monitor_values
        assert o.vtime_total <= b.vtime_total * (1 + 1e-12)
        assert b.vtime_hidden_comm == 0.0
    assert any(o.vtime_hidden_comm > 0.0 for o in overlapped)


def test_cmtbone_split_phase_profile_sites():
    cfg = CMTBoneConfig(
        n=5, local_shape=(1, 1, 1), nsteps=2, gs_method="pairwise",
        work_mode="proxy", overlap=True,
    )
    rt = Runtime(nranks=4)
    rt.run(run_cmtbone, args=(cfg,))
    sites = {row.site for row in rt.job_profile().aggregates()}
    assert "gs_op_:begin" in sites
    assert "gs_op_:finish" in sites


# -- timeline spans --------------------------------------------------------

def test_timeline_span_renders_uppercase():
    from repro.analysis.timeline import TimelineRecorder, render_gantt
    from repro.mpi.clock import VirtualClock

    clock = VirtualClock()
    rec = TimelineRecorder(0, clock)
    t0 = rec.open_span("inflight")
    with rec.region("compute"):
        clock.advance(1.0)
    rec.close_span("inflight", t0)
    assert [iv.span for iv in rec.intervals] == [False, True]
    text = render_gantt(rec.intervals, width=10)
    row = text.splitlines()[1]
    cells = row.split("|")[1]
    assert cells and all(c == "A" for c in cells)
