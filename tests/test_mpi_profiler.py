"""mpiP-style profiler bookkeeping."""

import pytest

from repro.mpi import Runtime
from repro.mpi.profiler import CallRecord, JobProfile, RankProfile


class TestCallRecord:
    def test_accumulates(self):
        rec = CallRecord(op="MPI_Send", site="x")
        rp = RankProfile(rank=0)
        rp.add(rec, 0.5, 100)
        rp.add(rec, 1.5, 300)
        assert rp.records == {("MPI_Send", "x"): rec}
        assert rec.count == 2
        assert rec.vtime == pytest.approx(2.0)
        assert rec.bytes_total == 400
        assert rec.bytes_avg == pytest.approx(200.0)
        assert rec.vtime_max == pytest.approx(1.5)


class TestRankProfile:
    def test_record_merges_by_key(self):
        rp = RankProfile(rank=0)
        rp.record("MPI_Send", "a", 1.0, 10)
        rp.record("MPI_Send", "a", 2.0, 20)
        rp.record("MPI_Send", "b", 4.0, 40)
        assert len(rp.records) == 2
        assert rp.mpi_time == pytest.approx(7.0)


class TestJobProfile:
    def _profile(self):
        prof = JobProfile(nranks=2)
        rp0, rp1 = RankProfile(0), RankProfile(1)
        rp0.record("MPI_Wait", "gs_op_", 3.0, 100)
        rp0.record("MPI_Send", "gs_op_", 1.0, 900)
        rp1.record("MPI_Wait", "gs_op_", 5.0, 100)
        prof.rank_totals = {0: (10.0, 4.0), 1: (10.0, 5.0)}
        prof.rank_profiles = [rp0, rp1]
        return prof

    def test_fractions(self):
        prof = self._profile()
        assert prof.mpi_fraction(0) == pytest.approx(0.4)
        assert prof.mpi_fractions() == [
            pytest.approx(0.4), pytest.approx(0.5)
        ]

    def test_aggregates_sorted_by_time(self):
        rows = self._profile().aggregates()
        assert rows[0].op == "MPI_Wait"
        assert rows[0].count == 2
        assert rows[0].vtime == pytest.approx(8.0)
        assert rows[0].vtime_max == pytest.approx(5.0)

    def test_top_sites_limits(self):
        assert len(self._profile().top_sites(1)) == 1

    def test_by_op(self):
        by = self._profile().by_op()
        assert by["MPI_Wait"] == pytest.approx(8.0)
        assert by["MPI_Send"] == pytest.approx(1.0)

    def test_message_rows_sorted_by_count_and_nonzero(self):
        prof = self._profile()
        rows = prof.message_size_rows()
        assert all(r.bytes_total > 0 for r in rows)
        counts = [r.count for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_message_rows_op_filter(self):
        rows = self._profile().message_size_rows(ops=["MPI_Send"])
        assert len(rows) == 1
        assert rows[0].op == "MPI_Send"

    def test_percentages_sum_to_100_of_mpi(self):
        rows = self._profile().aggregates()
        assert sum(r.mpi_pct for r in rows) == pytest.approx(100.0)


class TestEndToEnd:
    def test_sites_tagged(self):
        def main(comm):
            other = 1 - comm.rank
            req = comm.irecv(source=other, site="exchange")
            comm.isend(comm.rank, dest=other, site="exchange")
            req.wait(site="exchange")
            comm.allreduce(1.0, site="norm")

        rt = Runtime(nranks=2)
        rt.run(main)
        sites = {(r.op, r.site) for r in rt.job_profile().aggregates()}
        assert ("MPI_Isend", "exchange") in sites
        assert ("MPI_Wait", "exchange") in sites
        assert ("MPI_Allreduce", "norm") in sites

    def test_mpi_time_bounded_by_app_time(self):
        def main(comm):
            comm.compute(seconds=0.01)
            comm.allreduce(1.0)

        rt = Runtime(nranks=4)
        rt.run(main)
        prof = rt.job_profile()
        for r in range(4):
            app, mpi = prof.rank_totals[r]
            assert 0 <= mpi <= app
