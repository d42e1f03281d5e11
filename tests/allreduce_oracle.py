"""The exact sparse-merge allreduce ``repro.gs.allreduce_method`` replaced.

A reference implementation, kept as ``tests/test_gs_allreduce_scale.py``'s
independent oracle: the allreduce gather-scatter as it stood while it
still had two data paths, reduced to the exact one.  Every rank's
shared entries travel as a :class:`SparseGlobalVector` that advertises
the dense vector's byte count, and a binary ``merge`` combines two of
them at every step of the allreduce.  The only change is where a
reduction's identity comes from: :func:`identity` here, since
``ReduceOp`` no longer carries one.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from repro.gs import many, ops
from repro.gs.allreduce_method import SITE
from repro.gs.handle import sorted_unique
from repro.mpi.datatypes import MAX, MIN, SUM, ReduceOp

#: Dense-vector fill for the reductions the tests run.
_IDENTITY = {
    SUM.name: lambda dt: dt.type(0),
    MIN.name: lambda dt: (np.array(np.inf, dtype=dt)[()]
                          if np.issubdtype(dt, np.floating)
                          else np.iinfo(dt).max),
    MAX.name: lambda dt: (np.array(-np.inf, dtype=dt)[()]
                          if np.issubdtype(dt, np.floating)
                          else np.iinfo(dt).min),
}


def identity(op: ReduceOp, dtype) -> object:
    """Identity element of ``op`` for ``dtype``."""
    return _IDENTITY[op.name](np.dtype(dtype))


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
        vals = np.full(len(gids), identity(op, self.vals.dtype),
                       dtype=self.vals.dtype)
        ia = np.searchsorted(gids, self.gids)
        vals[ia] = self.vals
        ib = np.searchsorted(gids, other.gids)
        vals[ib] = op.fn(vals[ib], other.vals)
        return SparseGlobalVector(gids, vals, self.dense_len, self.itemsize)


def exchange_allreduce_oracle(handle, condensed, op, site=SITE):
    """Combine shared entries via a global-vector allreduce, merging the
    sparse vectors exactly."""
    comm = handle.comm
    dense_len = handle.max_gid + 1
    # uid-indices of the ids shared with another rank: the union of the
    # neighbour send lists.
    ix = sorted_unique(np.concatenate(
        [np.empty(0, dtype=np.intp), *handle.neighbor_send_index.values()]
    ))
    itemsize = condensed.dtype.itemsize
    mine = SparseGlobalVector(
        gids=handle.uids[ix],
        vals=np.ascontiguousarray(condensed[ix]),
        dense_len=dense_len,
        itemsize=itemsize,
    )
    merge_op = ReduceOp(name=op.name, fn=lambda a, b: a.merge(b, op))
    combined = comm.allreduce(mine, op=merge_op, site=site)
    out = condensed.copy()
    take = np.searchsorted(combined.gids, handle.uids[ix])
    out[ix] = combined.vals[take]
    return out


@contextlib.contextmanager
def allreduce_is_the_oracle():
    """Inside, ``gs_op``/``gs_op_finish``/``gs_op_many``/``choose_method``
    and everything built on them exchange ``method="allreduce"`` through
    the oracle."""
    saved = ops.METHODS["allreduce"], many.exchange_allreduce
    ops.METHODS["allreduce"] = exchange_allreduce_oracle
    many.exchange_allreduce = exchange_allreduce_oracle
    try:
        yield
    finally:
        ops.METHODS["allreduce"], many.exchange_allreduce = saved
