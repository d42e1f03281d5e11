"""Analytic gather-scatter schedules for virtually scaled jobs.

CMT-bone's workloads are translation-symmetric by construction: the
global mesh is ``proc_shape * local_shape`` on a periodic box, so every
rank owns an identical element brick and shares identical face-id sets
with its axis neighbours.  That symmetry is what makes cluster-scale
modelling tractable — instead of running ``gs_setup``'s all-to-all
discovery over 10^5 ranks, :func:`build_schedule` derives the exact
per-rank message plan (neighbour ranks, per-neighbour shared-id counts,
posting order) from one rank's DG face numbering and replicates it over
the whole processor grid with vectorized index arithmetic.

The derived plan is *exact*, not approximate: for rank counts small
enough to execute, :func:`schedule_matches_handle` asserts it against
the handle a real ``gs_setup`` discovery produces (see
``tests/test_vscale.py``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..core.config import CMTBoneConfig
from ..mesh.numbering import dg_face_numbering, total_faces


class StepSchedule(NamedTuple):
    """Vectorized per-rank exchange plan for one (config, P) pair.

    Attributes
    ----------
    nbr:
        ``(P, K)`` neighbour world ranks, sorted ascending per row —
        the order in which every rank posts its sends and waits
        (``GSHandle.neighbors`` is sorted the same way).
    msg_len:
        ``(P, K)`` shared-id counts aligned with ``nbr``; the pairwise
        payload of column ``j`` is ``msg_len[:, j] * itemsize`` bytes.
    pos:
        ``(P, K)`` reverse index: ``pos[r, j]`` is the column at which
        rank ``r`` appears in the neighbour list of ``nbr[r, j]`` —
        i.e. which of the sender's sequentially posted messages is the
        one addressed to ``r``.
    """

    nranks: int
    proc_shape: Tuple[int, int, int]
    n: int
    nel: int
    n_unique: int
    n_shared: int
    max_gid: int
    global_shared: int
    nbr: np.ndarray
    msg_len: np.ndarray
    pos: np.ndarray

    @property
    def n_neighbors(self) -> int:
        return int(self.nbr.shape[1])

    @property
    def dense_len(self) -> int:
        """Length of the allreduce method's dense global vector."""
        return self.max_gid + 1

    def pairwise_bytes(self) -> np.ndarray:
        """``(P, K)`` payload bytes per pairwise message of doubles."""
        return self.msg_len.astype(np.float64) * 8.0


def _axis_directions(proc_shape: Tuple[int, int, int]) -> list:
    """(axis, offset) pairs producing distinct cross-rank neighbours.

    An axis with one rank wraps onto itself (purely local duplicates,
    no message); an axis with exactly two ranks reaches the *same*
    neighbour in both directions, so only one direction is kept and the
    shared-id intersection below naturally counts both face planes.
    """
    dirs = []
    for axis, p in enumerate(proc_shape):
        if p == 1:
            continue
        dirs.append((axis, 1))
        if p > 2:
            dirs.append((axis, -1))
    return dirs


def build_schedule(
    config: CMTBoneConfig, nranks: int
) -> StepSchedule:
    """Derive the exact exchange plan for ``nranks`` virtual ranks."""
    partition = config.build_partition(nranks)
    px, py, pz = partition.proc_shape
    n = config.n

    ranks = np.arange(nranks, dtype=np.int64)
    cx = ranks % px
    cy = (ranks // px) % py
    cz = ranks // (px * py)

    dirs = _axis_directions((px, py, pz))
    cols = []
    for axis, off in dirs:
        nc = [cx, cy, cz]
        if axis == 0:
            nc[0] = (cx + off) % px
        elif axis == 1:
            nc[1] = (cy + off) % py
        else:
            nc[2] = (cz + off) % pz
        cols.append(nc[0] + px * (nc[1] + py * nc[2]))
    k = len(cols)

    # Per-direction shared-id counts from one representative rank: the
    # grid is vertex-transitive, so rank 0's intersection with its
    # neighbour in each direction holds for every rank.
    u0 = np.unique(dg_face_numbering(partition, 0))
    lens = np.empty(k, dtype=np.int64)
    shared_union = []
    for j, q_col in enumerate(cols):
        uq = np.unique(dg_face_numbering(partition, int(q_col[0])))
        shared = np.intersect1d(u0, uq, assume_unique=True)
        lens[j] = len(shared)
        shared_union.append(shared)
    n_shared = (
        len(np.unique(np.concatenate(shared_union))) if k else 0
    )

    if k:
        nbr_raw = np.stack(cols, axis=1)
        len_raw = np.broadcast_to(lens, (nranks, k))
        order = np.argsort(nbr_raw, axis=1)
        nbr = np.take_along_axis(nbr_raw, order, axis=1)
        msg_len = np.take_along_axis(len_raw, order, axis=1)
        # pos[r, j]: where r sits in the sorted neighbour row of its
        # j-th neighbour (K is at most 6, so the (P, K, K) probe is
        # cheap even at P = 1e5).
        qrows = nbr[nbr]
        pos = np.argmax(
            qrows == ranks[:, None, None], axis=2
        ).astype(np.int64)
    else:
        nbr = np.empty((nranks, 0), dtype=np.int64)
        msg_len = np.empty((nranks, 0), dtype=np.int64)
        pos = np.empty((nranks, 0), dtype=np.int64)

    return StepSchedule(
        nranks=nranks,
        proc_shape=(px, py, pz),
        n=n,
        nel=partition.nel_local,
        n_unique=len(u0),
        n_shared=n_shared,
        max_gid=total_faces(partition.mesh) * n * n - 1,
        global_shared=n_shared * nranks,
        nbr=nbr,
        msg_len=msg_len,
        pos=pos,
    )


def schedule_matches_handle(
    schedule: StepSchedule, handle, rank: int
) -> Optional[str]:
    """Cross-check the analytic plan against a real ``gs_setup`` handle.

    Returns ``None`` when rank ``rank``'s row of the schedule agrees
    with the handle's discovered index sets, else a human-readable
    description of the first mismatch.  The test suite's oracle: it
    holds the modeled schedule to what ``gs_setup`` discovers.
    """
    want_nbrs = [int(q) for q in schedule.nbr[rank]]
    have_nbrs = handle.neighbors
    if want_nbrs != have_nbrs:
        return f"neighbors {have_nbrs} != modeled {want_nbrs}"
    for j, q in enumerate(want_nbrs):
        have_len = len(handle.neighbor_send_index[q])
        want_len = int(schedule.msg_len[rank, j])
        if have_len != want_len:
            return (
                f"message to rank {q}: {have_len} shared ids "
                f"!= modeled {want_len}"
            )
    checks = [
        ("n_unique", handle.n_unique, schedule.n_unique),
        ("max_gid", handle.max_gid, schedule.max_gid),
        ("global_shared", handle.global_shared, schedule.global_shared),
        (
            "n_shared",
            handle.setup_stats.get("n_shared"),
            schedule.n_shared,
        ),
    ]
    for name, have, want in checks:
        if have != want:
            return f"{name}: {have} != modeled {want}"
    return None
