"""The "allreduce onto a big vector" gather-scatter strategy.

The third gslib candidate: scatter every rank's contributions into one
dense global vector (length = max global id + 1), ``MPI_Allreduce`` it,
and read back.  Trivially correct and latency-optimal in message
*count*, but the vector is the size of the whole shared index space, so
the cost grows with the *global* problem rather than the local boundary
— which is why Fig. 7 finds it "too expensive" for both mini-apps at
256 ranks.

The simulation splits that cost from the data.  The allreduce carries
a :class:`DenseVector`, which holds no values and advertises the dense
vector's byte count through the ``__wire_nbytes__`` protocol (see
``repro.mpi.datatypes.payload_nbytes``): the network model prices bytes
and message count, not contents, so the modelled time, profile rows and
message trace are those of the real vector, while host memory stays
bounded at any scale.  The combined values come from the handle's
pairwise exchange run in ``comm.shadow()``, which leaves no trace on
the clock, the profile, the message trace or the fault injector — so
they equal ``method="pairwise"`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..mpi.datatypes import ReduceOp
from .handle import GSHandle
from .pairwise import exchange_pairwise

#: Call-site label recorded in the mpiP-style profile.
SITE = "gs_op:allreduce"


class DenseVector(tuple):
    """``(dense_len, itemsize)``: the dense allreduce vector as the
    network sees it.  Immutable, so a send never copies or pickles it."""

    __slots__ = ()

    @property
    def __wire_nbytes__(self) -> int:
        return self[0] * self[1]


#: Two dense vectors of one handle combine to either: they hold no values.
_SIZED = ReduceOp("gs_allreduce", lambda a, b: a)


def exchange_allreduce(
    handle: GSHandle, condensed: np.ndarray, op: ReduceOp, site: str = SITE
) -> np.ndarray:
    """Combine shared entries via a global-vector allreduce; returns a
    new array.

    One ``MPI_Allreduce`` of the dense vector's size carries the cost;
    the pairwise exchange in the communicator's shadow carries the
    values.
    """
    comm = handle.comm
    dense = DenseVector((handle.max_gid + 1, condensed.dtype.itemsize))
    comm.allreduce(dense, op=_SIZED, site=site)
    with comm.shadow():
        return exchange_pairwise(handle, condensed, op)
