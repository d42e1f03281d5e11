"""The "allreduce onto a big vector" gather-scatter strategy.

The third gslib candidate: scatter every rank's contributions into one
dense global vector (length = max global id + 1, identity-filled),
``MPI_Allreduce`` it, and read back.  Trivially correct and latency-
optimal in message *count*, but the vector is the size of the whole
shared index space, so the cost grows with the *global* problem rather
than the local boundary — which is why Fig. 7 finds it "too expensive"
for both mini-apps at 256 ranks.

To keep the simulation faithful in *cost* without burning gigabytes of
host RAM, the dense vector travels as a :class:`SparseGlobalVector`:
semantically a sparse merge, but advertising the dense byte count to
the network model via the ``__wire_nbytes__`` protocol (see
``repro.mpi.datatypes.payload_nbytes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpi.datatypes import ReduceOp
from .handle import GSHandle, sorted_unique

#: Call-site label recorded in the mpiP-style profile.
SITE = "gs_op:allreduce"

#: Above this many shared-id instances job-wide, the exact sparse
#: merge would claim cluster-scale memory on the simulation host, so
#: the method switches to the cost-faithful split described in
#: :func:`exchange_allreduce` (same modelled time, bounded memory).
EXACT_MERGE_LIMIT = 400_000


@dataclass
class SparseGlobalVector:
    """Sparse stand-in for the dense allreduce vector.

    ``gids`` are sorted and unique; entries absent from ``gids`` hold
    the reduction identity.  ``dense_len`` fixes the advertised wire
    size so the simulated network charges for the full dense vector
    exactly as the real algorithm would ship it.
    """

    gids: np.ndarray
    vals: np.ndarray
    dense_len: int
    itemsize: int = 8

    @property
    def __wire_nbytes__(self) -> int:
        return self.dense_len * self.itemsize

    def merge(self, other: "SparseGlobalVector", op: ReduceOp
              ) -> "SparseGlobalVector":
        """Element-wise reduction of two sparse vectors.

        Ids present in both are combined with ``op``; ids present in
        one side pass through unchanged (the other side holds the
        identity there).
        """
        if self.dense_len != other.dense_len:
            raise ValueError("mismatched dense lengths in gs allreduce")
        gids = sorted_unique(np.concatenate((self.gids, other.gids)))
        vals = np.full(len(gids), op.identity(self.vals.dtype),
                       dtype=self.vals.dtype)
        ia = np.searchsorted(gids, self.gids)
        vals[ia] = self.vals
        ib = np.searchsorted(gids, other.gids)
        vals[ib] = op.fn(vals[ib], other.vals)
        return SparseGlobalVector(gids, vals, self.dense_len, self.itemsize)


def exchange_allreduce(
    handle: GSHandle, condensed: np.ndarray, op: ReduceOp, site: str = SITE
) -> np.ndarray:
    """Combine shared entries via a global-vector allreduce.

    Only the *shared* ids need to ride the vector (purely local ids
    would reduce against identities on every other rank — nek's
    implementation exploits the same observation), but the wire size is
    the dense global vector either way.

    Above :data:`EXACT_MERGE_LIMIT` shared instances job-wide, the
    exact sparse union would need the aggregate memory of the cluster
    being modelled (the very reason Fig. 7 finds this method "too
    expensive"), so cost and data are split: the allreduce runs with
    empty sparse payloads that still advertise the dense wire size —
    virtual-time cost is identical, since the network model prices
    bytes and message count, not contents — and the combined values are
    obtained through a pairwise exchange executed in the communicator's
    shadow (uncharged, unprofiled) region.
    """
    comm = handle.comm
    dense_len = handle.max_gid + 1
    ix = handle.shared_index
    itemsize = condensed.dtype.itemsize
    exact = handle.global_shared <= EXACT_MERGE_LIMIT

    if exact:
        mine = SparseGlobalVector(
            gids=handle.uids[ix],
            vals=np.ascontiguousarray(condensed[ix]),
            dense_len=dense_len,
            itemsize=itemsize,
        )
    else:
        mine = SparseGlobalVector(
            gids=np.empty(0, dtype=np.int64),
            vals=np.empty(0, dtype=condensed.dtype),
            dense_len=dense_len,
            itemsize=itemsize,
        )
    merge_op = ReduceOp(
        name=op.name,
        fn=lambda a, b: a.merge(b, op),
        identity_for=lambda dt: None,
    )
    combined = comm.allreduce(mine, op=merge_op, site=site)

    if exact:
        out = condensed.copy()
        take = np.searchsorted(combined.gids, handle.uids[ix])
        out[ix] = combined.vals[take]
        return out

    from .pairwise import exchange_pairwise

    with comm.shadow():
        return exchange_pairwise(handle, condensed, op)
