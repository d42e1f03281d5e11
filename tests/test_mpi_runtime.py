"""Runtime lifecycle: errors, deadlock detection, comm management."""

import numpy as np
import pytest

from repro.mpi import DeadlockError, MPIError, Runtime


class TestLifecycle:
    def test_single_rank_inline(self):
        res = Runtime(nranks=1).run(lambda comm: comm.rank)
        assert res == [0]

    def test_results_in_rank_order(self):
        res = Runtime(nranks=5).run(lambda comm: comm.rank * 10)
        assert res == [0, 10, 20, 30, 40]

    def test_args_kwargs_forwarded(self):
        def main(comm, a, b=0):
            return a + b + comm.rank

        res = Runtime(nranks=2).run(main, args=(5,), kwargs={"b": 7})
        assert res == [12, 13]

    def test_single_shot(self):
        rt = Runtime(nranks=2)
        rt.run(lambda comm: None)
        with pytest.raises(MPIError):
            rt.run(lambda comm: None)

    def test_bad_nranks(self):
        with pytest.raises(ValueError):
            Runtime(nranks=0)


class TestErrorPropagation:
    def test_exception_reraised_with_rank(self):
        def main(comm):
            if comm.rank == 2:
                raise RuntimeError("boom on 2")
            comm.barrier()

        with pytest.raises(MPIError, match="rank 2"):
            Runtime(nranks=4).run(main)

    def test_blocked_peers_released_on_error(self):
        """Ranks blocked in recv when a peer dies must not hang."""

        def main(comm):
            if comm.rank == 0:
                raise ValueError("dead")
            comm.recv(source=0)

        with pytest.raises(MPIError):
            Runtime(nranks=3).run(main)

    def test_abort_error_not_primary(self):
        """The user's exception wins over secondary AbortErrors."""

        def main(comm):
            if comm.rank == 1:
                raise KeyError("the real bug")
            comm.recv(source=1 - comm.rank if comm.size == 2 else 1)

        with pytest.raises(MPIError, match="the real bug"):
            Runtime(nranks=2).run(main)


class TestDeadlockDetection:
    def test_recv_from_silent_peer(self):
        def main(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=1)

        rt = Runtime(nranks=3)
        with pytest.raises(DeadlockError):
            rt.run(main)
        assert rt.deadlock_report is not None
        assert "rank" in rt.deadlock_report

    def test_single_rank_deadlock_detected(self):
        """Regression: ``nranks=1`` used to run the job inline on the
        calling thread without ever starting the deadlock watchdog, so
        a self-deadlocked single-rank job hung forever.  The single-rank
        path now goes through the same worker-thread + watchdog machinery
        as the multi-rank path."""
        rt = Runtime(nranks=1)
        with pytest.raises(DeadlockError):
            rt.run(lambda comm: comm.recv(source=0, tag=1))
        assert rt.deadlock_report is not None
        assert "rank 0" in rt.deadlock_report

    def test_mismatched_tags_deadlock(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=5)
                comm.recv(source=1, tag=5)
            else:
                comm.recv(source=0, tag=6)  # wrong tag: never matches

        with pytest.raises(DeadlockError):
            Runtime(nranks=2).run(main)


class TestReporting:
    def test_clock_stats(self):
        def main(comm):
            comm.compute(seconds=0.1 * (comm.rank + 1))
            comm.barrier()

        rt = Runtime(nranks=3)
        rt.run(main)
        stats = rt.clock_stats()
        assert [s.rank for s in stats] == [0, 1, 2]
        assert all(s.total >= 0.1 for s in stats)
        assert all(s.comm > 0 for s in stats)  # barrier cost

    def test_job_profile_populated(self):
        def main(comm):
            comm.allreduce(np.ones(10))
            comm.barrier()

        rt = Runtime(nranks=4)
        rt.run(main)
        prof = rt.job_profile()
        assert prof.nranks == 4
        ops = {r.op for r in prof.aggregates()}
        assert "MPI_Allreduce" in ops
        assert "MPI_Barrier" in ops
        assert prof.mpi_time > 0
