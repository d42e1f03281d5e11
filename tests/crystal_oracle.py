"""The per-call crystal-router exchange ``repro.gs.crystal`` replays.

Kept as the reference for ``tests/test_crystal_plan.py``: every call
builds the ``{dest: (gids, values)}`` routing dict, ships it through the
generic :func:`repro.gs.crystal.route` (``comm.send`` prices and
snapshots each stage's dict through ``pickle``) and folds what arrives
with ``np.searchsorted`` + ``ufunc.at``.  This is what
``exchange_crystal`` did on every call before it recorded a
``CrystalPlan``, and still does on a handle's first exchange per dtype.
"""

import contextlib

import numpy as np

from repro.gs import ops
from repro.gs.crystal import SITE, route


def exchange_crystal_oracle(handle, condensed, op, site=SITE):
    records = {
        q: (handle.uids[ix], condensed[ix])
        for q, ix in handle.neighbor_send_index.items()
    }
    arrived = route(records, handle.comm, site=site)
    out = condensed.copy()
    for _src, (gids, vals) in sorted(arrived.items()):
        ix = np.searchsorted(handle.uids, gids)
        op.ufunc.at(out, ix, vals)
    return out


@contextlib.contextmanager
def crystal_is_the_oracle():
    """Inside, ``gs_op``/``gs_op_finish``/``choose_method`` and everything
    built on them exchange ``method="crystal"`` through the oracle."""
    tables = (ops.METHODS, ops._ON_OWNED)
    saved = [t["crystal"] for t in tables]
    for t in tables:
        t["crystal"] = exchange_crystal_oracle
    try:
        yield
    finally:
        for t, fn in zip(tables, saved):
            t["crystal"] = fn
