"""``gs_setup`` — building a gather-scatter handle by global discovery.

The paper, Section VI: "each processor is given index sets containing
the global ids of the elements using ``gs_setup``.  This requires a
discovery phase using all-to-all communication to identify for every
global index *i* on process *p*, all the processes *q* that also have
*i*."

:func:`gs_setup` performs exactly that discovery over the simulated
MPI, producing a :class:`GSHandle` that the three exchange algorithms
(:mod:`~repro.gs.pairwise`, :mod:`~repro.gs.crystal`,
:mod:`~repro.gs.allreduce_method`) and :func:`~repro.gs.ops.gs_op`
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..mpi.communicator import Comm
from ..mpi.datatypes import MAX, SUM, ReduceOp


def _fold(fn: np.ufunc, into: np.ndarray, slots, vals: np.ndarray) -> None:
    """``into[slots] = fn(into[slots], vals)``; ``None`` is every slot."""
    if slots is None:
        fn(into, vals, out=into)
    else:
        into[slots] = fn(into[slots], vals)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending: plain ``np.unique``,
    whose first call in a process imports ``numpy.ma`` (~13 ms)."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def stack_axes(x: np.ndarray, shape: tuple) -> tuple:
    """The stack axes of gs data ``x``: its shape before ``shape``."""
    k = x.ndim - len(shape)
    if k < 0 or x.shape[k:] != shape:
        raise ValueError(
            f"gs data shape {x.shape} lacks the handle shape {shape}"
        )
    return x.shape[:k]


def check_out(out: np.ndarray, shape: tuple, dtype) -> None:
    """Raise unless ``out`` can take a ``shape``/``dtype`` gs result."""
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"gs out must be C-contiguous {shape} "
            f"{dtype}, got {out.shape} {out.dtype}"
        )


def identity(op: ReduceOp, dtype: np.dtype):
    """``e`` with ``op(x, e)`` bitwise ``x`` for every ``x`` of ``dtype``
    (``-0.0``, not ``0.0``, for a float sum), or ``None``."""
    if dtype.kind == "f":
        lo, hi = -np.inf, np.inf
    elif dtype.kind in "iu":
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
    else:
        return None
    return {np.add: -0.0, np.multiply: 1, np.maximum: lo,
            np.minimum: hi}.get(op.ufunc)


@dataclass(eq=False, repr=False)
class GSHandle:
    """Index sets and exchange plans for one global numbering.

    Attributes
    ----------
    comm:
        The communicator the handle was set up on.
    shape:
        Shape of one field of the data ``gs_op`` will accept; a stack
        of fields carries it as its trailing axes.
    uids:
        Sorted unique global ids present on this rank.
    rep / dup_index / rounds:
        The compiled *local condense* plan: flat index of every uid's
        first copy; uid-indices of the ids with a second copy (``None``:
        all of them); and per k-th extra copy ``(slots, flat indices)``,
        ``slots`` indexing ``dup_index`` (``None``: all of it).  Copies
        of an id are numbered in flat-index order.
    inverse:
        uid-index of every data entry, shaped like the data (the
        *scatter back* plan).
    neighbor_send_index:
        For each neighbour rank, the uid-indices (sorted by gid, hence
        identically ordered on both sides) of ids shared with it; their
        union is the ids shared with at least one other rank.
    max_gid:
        Global maximum id (sizes the allreduce method's big vector).
    """

    comm: Comm
    shape: tuple
    uids: np.ndarray
    rep: np.ndarray
    dup_index: Optional[np.ndarray]
    rounds: List[Tuple[Optional[np.ndarray], np.ndarray]]
    inverse: np.ndarray
    neighbor_send_index: Dict[int, np.ndarray]
    max_gid: int
    #: Total shared-id instances across the whole job (allreduce'd at
    #: setup; vscale checks its schedule against it).
    global_shared: int = 0
    method: Optional[str] = None
    setup_stats: dict = field(default_factory=dict)
    #: Compiled from the above on first use: the exchange plans
    #: (``pairwise.plan_for``, ``crystal.CrystalPlan``), bound to ``comm``
    #: and its mailboxes, and the fold slots of field stacks (``_slots``).
    #: It never travels: copies and pickles of the handle start without.
    _derived: dict = field(default_factory=dict, init=False)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_derived"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _derived={})

    # -- local plans -------------------------------------------------------

    @property
    def n_unique(self) -> int:
        return len(self.uids)

    def pair_plan(self) -> Optional["PairPlan"]:
        """The :class:`PairPlan` of a pair numbering, built on first use;
        ``None`` when some id has more than two copies in the job."""
        if "pair" not in self._derived:
            mult = np.bincount(self.inverse.reshape(-1),
                               minlength=self.n_unique)
            for ix in self.neighbor_send_index.values():
                mult[ix] += 1
            pair = mult.max(initial=0) <= 2
            self._derived["pair"] = PairPlan(self) if pair else None
        return self._derived["pair"]

    @property
    def neighbors(self) -> List[int]:
        """Ranks this rank shares at least one id with (sorted)."""
        return sorted(self.neighbor_send_index)

    def _slots(self, nf: int) -> tuple:
        """``(dup_index, slots of every round)`` for ``nf`` stacked fields
        laid end to end: the one-field slots repeated at per-field
        offsets, so a stack is folded flat, exactly like one field."""
        if nf == 1:
            return self.dup_index, [s for s, _ in self.rounds]
        stacks = self._derived.setdefault("stacks", {})
        if nf not in stacks:
            nu = self.n_unique
            ndup = nu if self.dup_index is None else len(self.dup_index)

            def tile(ix, stride):
                if ix is None:  # "all of them" holds in every field
                    return None
                return np.add.outer(np.arange(nf) * stride, ix).reshape(-1)

            stacks[nf] = (
                tile(self.dup_index, nu),
                [tile(s, ndup) for s, _ in self.rounds],
            )
        return stacks[nf]

    def condense(self, x: np.ndarray, op: ReduceOp) -> np.ndarray:
        """Combine local duplicates: data ``(..., *shape)`` -> per-uid
        values ``(..., n_unique)``.

        One gather of the first copies plus one gather-and-fold per
        duplicate round, in the order ``ufunc.reduceat`` folds id-sorted
        copies: left to right, except that numpy adds a float segment as
        ``x0 + (x1 + x2 + ...)`` — and pairwise from nine copies on,
        which this does not follow (a hex-mesh id has at most eight).
        """
        lead = stack_axes(x, self.shape)
        fn = op.ufunc
        if fn is None:
            raise ValueError(f"{op.name} has no ufunc; cannot gs over it")
        nf = prod(lead)
        # One field gathers flat; a stack row-wise, then folds flat.
        flat = x.reshape(-1) if nf == 1 else x.reshape(nf, -1)
        acc = flat.take(self.rep, axis=-1).reshape(-1)
        dup, slots = self._slots(nf)
        gathers = [flat.take(ix, axis=-1).reshape(-1) for _, ix in self.rounds]
        if gathers and fn is np.add and acc.dtype.kind in "fc":
            tail = gathers[0]
            for s, vals in zip(slots[1:], gathers[1:]):
                _fold(fn, tail, s, vals)
            _fold(fn, acc, dup, tail)
        elif gathers:
            head = acc if dup is None else acc[dup]
            for s, vals in zip(slots, gathers):
                _fold(fn, head, s, vals)
            if dup is not None:
                acc[dup] = head
        return acc.reshape(lead + (self.n_unique,)) if lead else acc

    def scatter(
        self, condensed: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-uid values ``(..., n_unique)`` -> data ``(..., *shape)``
        (duplicates replicated), written into ``out`` when given (which
        may be what was condensed)."""
        lead = condensed.shape[:-1]
        if condensed.shape[-1:] != (self.n_unique,):
            raise ValueError(
                f"condensed shape {condensed.shape} != (..., {self.n_unique})"
            )
        shape = lead + self.shape
        if out is not None:
            check_out(out, shape, condensed.dtype)
        # One field scatters flat, a stack row-wise (as it gathers).
        nf = prod(lead)
        flat = (nf,) if nf > 1 else ()
        # Indices are in range by construction; "clip" spares take the
        # bounce buffer that "raise" needs with out=.
        res = condensed.reshape(flat + (-1,)).take(
            self.inverse, axis=-1, mode="clip",
            out=None if out is None else out.reshape(flat + self.shape),
        )
        return res.reshape(shape) if out is None else out


def _affine(ix: np.ndarray, block: int) -> bool:
    """Whether ``ix`` is runs ``k * block + arange(block)``, run by run."""
    rows = ix.reshape(-1, block)
    steps = rows - rows[:, :1]
    steps -= np.arange(block, dtype=steps.dtype)
    return not (steps.any() or (rows[:, 0] % block).any())


class PairPlan:
    """Local passes of a *pair numbering* (no id has more than two
    copies in the job, as in the DG face numbering), in entry space.

    Entry ``e`` ends up ``fn(u[first[e]], other[first[e]])``: its id's
    first copy, then that copy's other operand — the id's second copy on
    this rank, the payload of the neighbour that holds it, or the
    identity of ``fn`` for an id with one copy in the job — the operand
    order of condense -> fold -> scatter, so bit for bit their result.
    A gs call gathers each field's other operands into a buffer shaped
    like its entries (:meth:`load`; a second copy's is its first copy).
    An entry whose id a neighbour holds gathers its own value there:
    that is what the call sends, and the neighbour's payload then lands
    on it (``send[i]``: the entries of the ids shared with neighbour
    ``i``, in id order).  :meth:`combine` folds every entry with its
    other operand in one ufunc, then hands each second copy its first
    copy's result.  It holds no reference back to the handle.

    The gathers move ``block`` entries per index: the largest run of
    trailing axes whose operands are runs too.  On the DG face
    numbering, whose ids ascend in a face's entry order, that is a
    whole face.
    """

    __slots__ = ("shape", "n", "block", "grid", "first", "other", "lone",
                 "send", "dups")

    def __init__(self, handle: GSHandle):
        inv = handle.inverse.reshape(-1)
        self.shape, self.n = handle.shape, inv.size
        # Narrow while building: the entry-space arrays are full size.
        itype = np.int32 if self.n < 2**31 else np.intp
        # Each id's second copy; -1: one copy in the job; -2: the other
        # copy is a neighbour's.
        other = np.full(handle.n_unique, -1, dtype=itype)
        if handle.rounds:  # a pair numbering has at most one round
            dup = handle.dup_index
            other[slice(None) if dup is None else dup] = handle.rounds[0][1]
        self.send = []
        for q in handle.neighbors:
            ix = handle.neighbor_send_index[q]
            other[ix] = -2
            self.send.append(handle.rep[ix])
        first, other = handle.rep.astype(itype)[inv], other[inv]
        self.lone = np.nonzero(other == -1)[0]
        # A first copy's other operand is the second copy, a second
        # copy's the first; with no copy here the entry's own value
        # stands in, to be sent and replaced by the payload, or
        # replaced by the identity.
        if handle.rounds:
            seconds = handle.rounds[0][1]  # the second copies' entries
            other[seconds] = first[seconds]
        alone = np.nonzero(other < 0)[0]
        other[alone] = alone
        dims = self.shape
        for block in [prod(dims[k:]) for k in range(1, len(dims))] + [1]:
            if _affine(first, block) and _affine(other, block):
                break
        #: An entry axis as ``(blocks, block)``.
        self.block, self.grid = block, (self.n // block, block)
        self.first = (first[::block] // block).astype(np.intp)
        self.other = (other[::block] // block).astype(np.intp)
        #: The blocks of second copies.
        self.dups = np.nonzero(self.first != np.arange(len(self.first)))[0]

    def load(self, u: np.ndarray, idents: list,
             buf: Optional[np.ndarray] = None) -> np.ndarray:
        """The other operands ``(*lead, n)`` of data ``u`` ``(*lead,
        *shape)``; ``idents`` lists ``(fields, identity)``, the identity
        for the lone entries of each slice of the stack.  ``buf`` is
        refilled if given."""
        lead = stack_axes(u, self.shape)
        src = u.reshape(lead + self.grid)
        if buf is None:
            buf = src.take(self.other, axis=-2, mode="clip")
        else:
            src.take(self.other, axis=-2, mode="clip",
                     out=buf.reshape(lead + self.grid))
        buf = buf.reshape(lead + (self.n,))
        for fields, ident in idents:
            buf[fields][..., self.lone] = ident
        return buf

    def combine(self, u: np.ndarray, buf: np.ndarray, fn: np.ufunc,
                out: np.ndarray) -> None:
        """Write ``fn(first operands of u, their other operands)`` for
        data ``u`` and what :meth:`load` gave for it (after the
        exchange) into ``out``, a C-contiguous array shaped like ``u``
        (``u`` itself is allowed, and so is ``buf``).  ``buf`` is
        overwritten."""
        lead = buf.shape[:-1]
        # Every entry folds its own value with its other operand: the
        # result of every entry but the second copies.
        fn(u.reshape(buf.shape), buf, out=buf)
        done = buf.reshape(lead + self.grid)
        if np.may_share_memory(out, buf):  # only the second copies move
            done[..., self.dups, :] = done.take(
                self.first[self.dups], axis=-2, mode="clip"
            )
        else:
            done.take(self.first, axis=-2, mode="clip",
                      out=out.reshape(lead + self.grid))


def gs_setup(gids: np.ndarray, comm: Comm, site: str = "gs_setup") -> GSHandle:
    """Discover sharing and build a :class:`GSHandle`.

    ``gids`` is an integer array of any shape: one global id per data
    entry (the numbering schemes in :mod:`repro.mesh.numbering` produce
    them).  Collective over ``comm``.
    """
    gids = np.asarray(gids)
    if not np.issubdtype(gids.dtype, np.integer):
        raise TypeError(f"global ids must be integers, got {gids.dtype}")
    if gids.size and int(gids.min()) < 0:
        raise ValueError("global ids must be non-negative")
    flat = gids.reshape(-1).astype(np.int64)

    # Local condense/scatter plan, all from one stable argsort.
    order = np.argsort(flat, kind="stable")
    sorted_vals = flat[order]
    is_start = np.ones(len(flat), dtype=bool)
    is_start[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.nonzero(is_start)[0]
    uids, rep = sorted_vals[starts], order[starts]
    seg = np.cumsum(is_start) - 1  # uid-index of each sorted entry
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[order] = seg
    # Duplicate rounds: the k-th extra copy of every id that has one.
    extra = np.nonzero(~is_start)[0]
    dup, rounds = None, []
    if len(extra):
        seg_x = seg[extra]
        copy_no = extra - starts[seg_x]  # >= 1; copies in flat order
        dup = seg_x[copy_no == 1]
        slot_of = np.empty(len(uids), dtype=np.intp)
        slot_of[dup] = np.arange(len(dup))
        by_round = np.argsort(copy_no, kind="stable")
        cuts = np.cumsum(np.bincount(copy_no)[1:-1])
        for members in np.split(by_round, cuts):
            everyone = len(members) == len(dup)
            slots = None if everyone else slot_of[seg_x[members]]
            rounds.append((slots, order[extra[members]]))
        if len(dup) == len(uids):
            dup = None

    # --- discovery phase (all-to-all), as in the paper -----------------
    size = comm.size
    # 1. Route each unique id to its "home" rank by cheap hashing.
    home = (uids % size).astype(np.int64)
    send_lists = [uids[home == h] for h in range(size)]
    got = comm.alltoall(send_lists, site=site)

    # 2. Homes invert: id -> ranks that reported it; keep shared only.
    # Vectorized grouping: sort (gid, src) pairs by gid, find group
    # boundaries, and keep groups reported by more than one rank.
    got_arrays = [np.asarray(g, dtype=np.int64).reshape(-1) for g in got]
    all_ids = (
        np.concatenate(got_arrays)
        if got_arrays
        else np.empty(0, dtype=np.int64)
    )
    all_src = np.repeat(
        np.arange(size, dtype=np.int64),
        [len(a) for a in got_arrays],
    )
    order = np.argsort(all_ids, kind="stable")
    s_ids, s_src = all_ids[order], all_src[order]
    if len(s_ids):
        is_start = np.concatenate(([True], s_ids[1:] != s_ids[:-1]))
        starts = np.nonzero(is_start)[0]
        ends = np.concatenate((starts[1:], [len(s_ids)]))
    else:
        starts = ends = np.empty(0, dtype=np.int64)

    # Member-level view of shared groups (group size >= 2), fully
    # vectorized: one "member" per (gid, reporting rank) pair.
    gsizes = ends - starts
    shared_groups = gsizes >= 2
    m_gsize = np.repeat(gsizes[shared_groups], gsizes[shared_groups])
    m_gstart = np.repeat(starts[shared_groups], gsizes[shared_groups])
    members = np.nonzero(
        np.repeat(shared_groups, gsizes)
    )[0]
    m_gid = s_ids[members]
    m_src = s_src[members]

    # Sort members by destination rank; each destination's reply is
    # (gids, group sizes, concatenated owner lists) — ragged arrays
    # instead of per-id Python tuples.
    dorder = np.argsort(m_src, kind="stable")
    d_src = m_src[dorder]
    d_gid = m_gid[dorder]
    d_gsize = m_gsize[dorder]
    d_gstart = m_gstart[dorder]
    total_owned = int(d_gsize.sum())
    if total_owned:
        ofs = np.cumsum(d_gsize) - d_gsize
        idx = (
            np.arange(total_owned)
            - np.repeat(ofs, d_gsize)
            + np.repeat(d_gstart, d_gsize)
        )
        d_owners = s_src[idx]
    else:
        d_owners = np.empty(0, dtype=np.int64)
    dest_cuts = np.searchsorted(d_src, np.arange(size + 1))
    owner_cuts = np.concatenate(
        ([0], np.cumsum(d_gsize))
    ).astype(np.int64)
    replies = []
    for r in range(size):
        a, b = dest_cuts[r], dest_cuts[r + 1]
        replies.append(
            (d_gid[a:b], d_gsize[a:b], d_owners[owner_cuts[a]:owner_cuts[b]])
        )
    answers = comm.alltoall(replies, site=site)

    # 3. Assemble per-neighbour index sets (sorted by gid on both sides).
    me = comm.rank
    r_gid = np.concatenate([np.asarray(a[0]) for a in answers])
    r_cnt = np.concatenate([np.asarray(a[1]) for a in answers])
    r_own = np.concatenate([np.asarray(a[2]) for a in answers])
    # Expand to (gid, owner) pairs and drop self.
    pair_gid = np.repeat(r_gid, r_cnt)
    keep = r_own != me
    pair_gid = pair_gid[keep]
    pair_own = r_own[keep]
    n_shared = len(sorted_unique(r_gid))
    # Group pairs by owner for the per-neighbour send lists.
    powner_order = np.argsort(pair_own, kind="stable")
    po = pair_own[powner_order]
    pg = pair_gid[powner_order]
    neighbor_send_index: Dict[int, np.ndarray] = {}
    if len(po):
        q_starts = np.nonzero(
            np.concatenate(([True], po[1:] != po[:-1]))
        )[0]
        q_ends = np.concatenate((q_starts[1:], [len(po)]))
        for a, b in zip(q_starts, q_ends):
            q = int(po[a])
            neighbor_send_index[q] = np.searchsorted(uids, np.sort(pg[a:b]))
    local_max = int(uids[-1]) if len(uids) else -1
    max_gid = int(comm.allreduce(local_max, op=MAX, site=site))
    global_shared = int(comm.allreduce(n_shared, op=SUM, site=site))

    handle = GSHandle(
        comm=comm,
        shape=gids.shape,
        uids=uids,
        rep=rep,
        dup_index=dup,
        rounds=rounds,
        inverse=inverse.reshape(gids.shape),
        neighbor_send_index=neighbor_send_index,
        max_gid=max_gid,
        global_shared=global_shared,
    )
    handle.setup_stats = {
        "n_unique": handle.n_unique,
        "n_shared": n_shared,
        "n_neighbors": len(neighbor_send_index),
        "max_gid": max_gid,
        "global_shared": global_shared,
    }
    return handle
