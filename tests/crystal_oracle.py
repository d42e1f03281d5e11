"""The dict-shipping crystal router ``repro.gs.crystal`` replaced.

A reference implementation, kept as ``tests/test_crystal_plan.py`` and
``tests/test_crystal_route.py``'s independent oracle: :func:`route_dicts`
is the router as it stood before the typed record wire — per stage it
splits a ``{dest: (gids, values)}`` dict, ships one half through
``comm.send`` and merges what arrives — and the two exchanges below are
the per-call gather-scatter folds (``np.searchsorted`` + ``ufunc.at``)
that rode it.  The only change is what a bundle is *charged*: the size
of the message the typed wire ships for the same records, worked out
here from the dict itself (``__wire_nbytes__``) rather than from any
array the production code builds.
"""

import contextlib
from typing import Dict, Tuple

import numpy as np

from repro.gs import many, ops
from repro.gs.crystal import SITE, TAG_CRYSTAL
from repro.gs.handle import sorted_unique

#: A routing buffer: destination rank -> (gids, values) record arrays.
Records = Dict[int, Tuple[np.ndarray, np.ndarray]]


class Bundle(dict):
    """A routing buffer on the wire: one count word, a (dest, count)
    pair per destination, then every array's bytes."""

    @property
    def __wire_nbytes__(self) -> int:
        return 8 * (1 + 2 * len(self)) + sum(
            g.nbytes + v.nbytes for g, v in self.values()
        )


def _merge(into: Records, frm: Records) -> None:
    """Concatenate record bundles per destination."""
    for dest, (g, v) in frm.items():
        if dest in into:
            g0, v0 = into[dest]
            into[dest] = (np.concatenate([g0, g]), np.concatenate([v0, v]))
        else:
            into[dest] = (np.asarray(g), np.asarray(v))


def _records_nbytes(records: Records) -> float:
    """Payload bytes in a routing buffer (gids + values)."""
    return float(
        sum(g.nbytes + v.nbytes for g, v in records.values())
    )


def route_dicts(records: Records, comm, site: str = SITE) -> Records:
    """Deliver every record bundle to its destination rank; returns the
    records whose destination is this rank (merged across all senders)."""
    size, rank = comm.size, comm.rank

    def send(verb: str, bundle: Records, partner: int, tag: int) -> None:
        post = comm.send if verb == "MPI_Send" else comm.isend
        post(Bundle(bundle), dest=partner, tag=tag, site=site)

    def recv(partner: int, tag: int) -> Records:
        return comm.recv(source=partner, tag=tag, site=site)

    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2

    buf: Records = dict(records)
    # Records addressed to ourselves never travel.
    self_records: Records = {}
    if rank in buf:
        self_records[rank] = buf.pop(rank)

    # Fold: high ranks park everything on their low image.
    if rank >= pof2:
        send("MPI_Send", buf, rank - pof2, TAG_CRYSTAL)
        buf = {}
    elif rank < rem:
        _merge(buf, recv(rank + pof2, TAG_CRYSTAL))

    # Hypercube stages among the low pof2 ranks; destinations >= pof2
    # route via their folded image.
    if rank < pof2:
        bit = pof2 >> 1
        while bit:
            partner = rank ^ bit

            def other_side(dest: int, _bit=bit, _rank=rank) -> bool:
                eff = dest if dest < pof2 else dest - pof2
                return (eff & _bit) != (_rank & _bit)

            outgoing: Records = {}
            keep: Records = {}
            for dest, gv in buf.items():
                (outgoing if other_side(dest) else keep)[dest] = gv
            send("MPI_Isend", outgoing, partner, TAG_CRYSTAL + 1)
            incoming = recv(partner, TAG_CRYSTAL + 1)
            # Per-stage pack/unpack of the routed records is a real
            # memory pass in gslib's crystal router; charge it.
            moved = _records_nbytes(outgoing) + _records_nbytes(incoming)
            comm.compute(mem_bytes=2.0 * moved)
            buf = keep
            _merge(buf, incoming)
            bit >>= 1

    # Unfold: hand back records destined for the folded high ranks.
    if rank < rem:
        high = {d: gv for d, gv in buf.items() if d >= pof2}
        for d in high:
            del buf[d]
        send("MPI_Send", high, rank + pof2, TAG_CRYSTAL + 2)
    elif rank >= pof2:
        buf = {}
        _merge(buf, recv(rank - pof2, TAG_CRYSTAL + 2))

    if any(d != rank for d in buf):
        stray = sorted(d for d in buf if d != rank)
        raise AssertionError(
            f"crystal router left records for {stray} on rank {rank}"
        )
    _merge(buf, self_records)
    return buf


def route_oracle(dest, ids, rows, comm, site=SITE):
    """:func:`repro.gs.crystal.route`'s contract over :func:`route_dicts`,
    packed and unpacked the way its callers used to: one bundle per
    distinct destination, rows flattened, ``reshape`` on arrival."""
    dest, ids, rows = np.asarray(dest), np.asarray(ids), np.asarray(rows)
    records = {
        int(d): (ids[dest == d], rows[dest == d].reshape(-1))
        for d in sorted_unique(dest)
    }
    arrived = route_dicts(records, comm, site=site)
    got_ids, flat = arrived.get(comm.rank, (ids[:0], rows[:0]))
    return got_ids, flat.reshape(len(got_ids), rows.shape[1])


def exchange_crystal_oracle(handle, condensed, op, site=SITE):
    """One routing dict per call; ``(n_unique,)`` or fields-first
    ``(nf, n_unique)`` packed gid-major, as ``gs_op_many`` did."""
    packed = condensed.ndim == 2
    records = {
        q: (
            handle.uids[ix],
            np.ascontiguousarray(condensed[:, ix].T).reshape(-1)
            if packed else condensed[ix],
        )
        for q, ix in handle.neighbor_send_index.items()
    }
    arrived = route_dicts(records, handle.comm, site=site)
    out = condensed.copy()
    for _src, (gids, vals) in sorted(arrived.items()):
        ix = np.searchsorted(handle.uids, gids)
        if packed:
            vals = np.asarray(vals).reshape(-1, len(condensed))
            for i in range(len(condensed)):
                op.ufunc.at(out[i], ix, vals[:, i])
        else:
            op.ufunc.at(out, ix, vals)
    return out


@contextlib.contextmanager
def crystal_is_the_oracle():
    """Inside, ``gs_op``/``gs_op_finish``/``gs_op_many``/``choose_method``
    and everything built on them exchange ``method="crystal"`` through
    the oracle."""
    saved = ops.METHODS["crystal"], many.exchange_crystal
    ops.METHODS["crystal"] = exchange_crystal_oracle
    many.exchange_crystal = exchange_crystal_oracle
    try:
        yield
    finally:
        ops.METHODS["crystal"], many.exchange_crystal = saved
