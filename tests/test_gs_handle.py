"""gs_setup discovery and the GSHandle local plans."""

import numpy as np
import pytest

from repro.mpi import SUM, MAX, Runtime
from repro.gs import gs_setup
from repro.gs.handle import sorted_unique


def setup_on(nranks, gids_fn):
    """Run gs_setup on every rank; return handle summaries."""

    def main(comm):
        h = gs_setup(gids_fn(comm.rank), comm)
        send = {q: h.uids[ix].tolist()
                for q, ix in h.neighbor_send_index.items()}
        return {
            "uids": h.uids.copy(),
            "neighbors": h.neighbors,
            "shared": sorted(set().union(*send.values())),
            "send": send,
            "max_gid": h.max_gid,
            "stats": h.setup_stats,
        }

    return Runtime(nranks=nranks).run(main)


class TestDiscovery:
    def test_two_rank_overlap(self):
        # Rank 0 holds {0,1,2,3}, rank 1 holds {2,3,4,5}.
        gids = {0: np.array([0, 1, 2, 3]), 1: np.array([2, 3, 4, 5])}
        res = setup_on(2, lambda r: gids[r])
        assert res[0]["neighbors"] == [1]
        assert res[0]["shared"] == [2, 3]
        assert res[0]["send"] == {1: [2, 3]}
        assert res[1]["send"] == {0: [2, 3]}
        assert res[0]["max_gid"] == 5

    def test_three_way_sharing(self):
        # Id 7 lives on all three ranks.
        gids = {
            0: np.array([7, 1]),
            1: np.array([7, 2]),
            2: np.array([7, 3]),
        }
        res = setup_on(3, lambda r: gids[r])
        for r in range(3):
            assert res[r]["shared"] == [7]
            others = sorted(set(range(3)) - {r})
            assert res[r]["neighbors"] == others
            # The other holders of id 7 are the ranks it is sent to.
            assert res[r]["send"] == {q: [7] for q in others}

    def test_no_sharing(self):
        res = setup_on(2, lambda r: np.array([r * 10, r * 10 + 1]))
        assert res[0]["neighbors"] == []
        assert res[0]["shared"] == []
        assert res[0]["stats"]["n_shared"] == 0

    def test_symmetry_of_send_lists(self):
        rng_gids = {
            0: np.array([0, 1, 5, 9, 12]),
            1: np.array([1, 2, 5, 13]),
            2: np.array([5, 9, 2, 40]),
        }
        res = setup_on(3, lambda r: rng_gids[r])
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                la = res[a]["send"].get(b, [])
                lb = res[b]["send"].get(a, [])
                assert la == lb  # identical order both sides

    def test_duplicate_local_ids_single_uid(self):
        gids = {0: np.array([4, 4, 4, 1]), 1: np.array([4])}
        res = setup_on(2, lambda r: gids[r])
        assert res[0]["uids"].tolist() == [1, 4]
        assert res[0]["send"] == {1: [4]}

    def test_validation(self):
        def main(comm):
            gs_setup(np.array([1.5, 2.5]), comm)

        with pytest.raises(Exception, match="integer"):
            Runtime(nranks=1).run(main)

        def main2(comm):
            gs_setup(np.array([-1, 2]), comm)

        with pytest.raises(Exception, match="non-negative"):
            Runtime(nranks=1).run(main2)


class TestLocalPlans:
    def test_condense_and_scatter_roundtrip(self):
        def main(comm):
            gids = np.array([[3, 3], [5, 7]])
            h = gs_setup(gids, comm)
            x = np.array([[1.0, 2.0], [4.0, 8.0]])
            cond = h.condense(x, SUM)
            out = h.scatter(cond)
            return cond.tolist(), out.tolist()

        cond, out = Runtime(nranks=1).run(main)[0]
        assert cond == [3.0, 4.0, 8.0]  # uids sorted: 3, 5, 7
        assert out == [[3.0, 3.0], [4.0, 8.0]]

    def test_condense_max(self):
        def main(comm):
            h = gs_setup(np.array([1, 1, 2]), comm)
            return h.condense(np.array([5.0, 9.0, 2.0]), MAX).tolist()

        assert Runtime(nranks=1).run(main)[0] == [9.0, 2.0]

    def test_condense_shape_checked(self):
        def main(comm):
            h = gs_setup(np.array([1, 2]), comm)
            h.condense(np.zeros(3), SUM)

        with pytest.raises(Exception, match="shape"):
            Runtime(nranks=1).run(main)

    def test_shared_gids_with(self):
        gids = {0: np.array([9, 4, 2]), 1: np.array([4, 9, 77])}

        def main(comm):
            h = gs_setup(gids[comm.rank], comm)
            return h.uids[h.neighbor_send_index[1 - comm.rank]].tolist()

        assert Runtime(nranks=2).run(main) == [[4, 9], [4, 9]]


class TestSortedUnique:
    """``np.unique`` without its first-call import of ``numpy.ma``."""

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 300])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_equals_np_unique(self, size, dtype):
        a = np.random.default_rng(size).integers(-5, 40, size).astype(dtype)
        got = sorted_unique(a)
        want = np.unique(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(sorted_unique(a.reshape(-1, 1)), want)
        assert np.array_equal(sorted_unique(a.tolist()), want)

    def test_is_the_union_of_two_sorted_id_lists(self):
        a, b = np.array([1, 4, 9]), np.array([0, 4, 9, 11])
        assert np.array_equal(
            sorted_unique(np.concatenate((a, b))), np.union1d(a, b)
        )
