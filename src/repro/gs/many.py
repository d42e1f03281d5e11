"""``gs_op_many`` — one exchange for several fields (gslib's vec API).

CMT-nek exchanges five conserved-variable traces (plus fluxes) every
RK stage.  Doing that as five separate ``gs_op`` calls pays the
per-message cost five times; gslib therefore offers ``gs_op_many`` /
``gs_op_vec``, which packs all fields that share a handle into one
message per neighbour.  This module implements the packed variant on
top of the same three exchange algorithms; ``bench_pack_ablation``
quantifies the win.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..mpi.datatypes import ReduceOp, SUM
from .allreduce_method import exchange_allreduce
from .crystal import exchange_crystal
from .handle import GSHandle
from .ops import METHODS, local_load, local_result, op_runs, pairs_for
from .pairwise import TAG_PAIRWISE, exchange_in_place

#: Call-site label for packed exchanges.
SITE_MANY = "gs_op_many"


def gs_op_many(
    handle: GSHandle,
    fields: Sequence[np.ndarray],
    op: ReduceOp = SUM,
    method: Optional[str] = None,
    site: str = SITE_MANY,
    out: Optional[Sequence[np.ndarray]] = None,
) -> List[np.ndarray]:
    """Gather-scatter several same-shaped fields in one packed exchange.

    Semantically identical to ``[gs_op(h, f) for f in fields]`` but
    each neighbour receives a single message carrying all fields'
    shared values.  ``out``, one array per field as in :func:`gs_op`
    (``out=fields`` works in place), receives the results.  Collective.
    """
    if not fields:
        return []
    method = method or handle.method or "pairwise"
    if method not in METHODS:
        raise ValueError(
            f"unknown gs method {method!r}; choose from {sorted(METHODS)}"
        )
    if not isinstance(op, ReduceOp):
        raise TypeError(f"gs_op_many folds with one ReduceOp, got {op!r}")
    nf = len(fields)
    dtype = np.result_type(*fields)
    runs = op_runs(op, fields[0], handle.shape)  # the same for each field
    pairs, idents = pairs_for(handle, method, runs, dtype)
    # Condense (or load the other operands of) every field: (nf, width).
    fields = [np.asarray(f, dtype=dtype) for f in fields]
    cond = np.stack([
        local_load(handle, pairs, idents, f, runs) for f in fields
    ])

    comm = handle.comm
    if comm.size > 1:
        if method == "pairwise":
            exchange_in_place(handle, cond, op, site, TAG_PAIRWISE + 1, pairs)
        elif method == "crystal":
            cond = exchange_crystal(handle, cond, op, site)
        else:
            for i in range(nf):
                cond[i] = exchange_allreduce(handle, cond[i], op, site=site)
    outs = [None] * nf if out is None else out
    out = [local_result(handle, pairs, c, f, runs, o)
           for c, f, o in zip(cond, fields, outs, strict=True)]
    # One memory-bound local pass over all fields (see gs_op).
    size = nf * handle.inverse.size
    comm.compute(
        flops=float(size),
        mem_bytes=2.0 * cond.dtype.itemsize * (size + nf * handle.n_unique),
    )
    return out

