"""``gs_op`` — the user-facing gather-scatter operation.

Mirrors gslib's ``gs_op_(u, op, handle)``: combine every entry of ``u``
that shares a global id — across local duplicates *and* across ranks —
with an associative operation, and write the combined value back into
every copy.  The cross-rank exchange runs through whichever of the
three algorithms the handle's auto-tuner selected (or an explicit
``method=`` override).

Split-phase interface
---------------------
:func:`gs_op_begin` / :func:`gs_op_finish` split one ``gs_op`` so the
exchange can overlap interior compute: ``begin`` posts the pairwise
sends/receives (only the cross-rank shared entries of ``u`` need to be
valid at that point) and returns a :class:`GSExchange`; ``finish``
waits, folds, and scatters.  The two halves are attributed to distinct
mpiP call sites (``<site>:begin`` / ``<site>:finish``) so overlapped
runs remain legible in the Fig. 9-style reports.

Only the pairwise method is genuinely split-phase (it is the only one
built on nonblocking point-to-point).  For the crystal-router and
allreduce methods ``begin`` records its inputs and ``finish`` runs the
whole blocking exchange — a documented synchronous fallback that keeps
the split-phase API collective-safe for every method while still
benefiting from any compute the caller performed between the halves
(every rank enters the blocking exchange later, so modelled waits never
grow).
"""

from __future__ import annotations

from math import prod
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from ..mpi.datatypes import ReduceOp, SUM
from .allreduce_method import exchange_allreduce
from .crystal import exchange_crystal
from .handle import GSHandle, check_out, identity
from .pairwise import (
    SITE as SITE_PAIRWISE,
    TAG_PAIRWISE,
    exchange_pairwise,
    plan_for,
)

#: The three exchange strategies evaluated at setup (paper, Section VI).
METHODS: Dict[str, Callable] = {
    "pairwise": exchange_pairwise,
    "crystal": exchange_crystal,
    "allreduce": exchange_allreduce,
}

#: Paper-style display names (Fig. 7 rows).
METHOD_LABELS = {
    "pairwise": "pairwise exchange",
    "crystal": "crystal router",
    "allreduce": "allreduce",
}


def _local_pass(handle: GSHandle, itemsize: int) -> float:
    """Virtual seconds of one field's local gather/scatter: a memory-bound
    indirected pass over the data (read u + write condensed, read
    condensed + write out).  gslib pays it on every gs_op, and the
    paper's Fig. 7 timings include it, so the virtual clock must too."""
    size = handle.inverse.size
    return handle.comm.machine.compute_seconds(
        flops=float(size), mem_bytes=2.0 * itemsize * (size + handle.n_unique)
    )


def op_runs(op, u: np.ndarray, shape: tuple) -> list:
    """``[(fields, op)]``: the runs of fields of ``u`` that fold with one
    :class:`ReduceOp`, each a slice of the stack and its op.  ``op`` is
    one op for every field of ``u`` (one run, over all of ``u``), or a
    sequence of one op per field of a ``(nf, *shape)`` stack."""
    if isinstance(op, ReduceOp):
        return [(slice(None), op)]
    ops = tuple(op)
    if u.shape != (len(ops),) + shape:
        raise ValueError(
            f"{len(ops)} gs ops need a {(len(ops),) + shape} stack, "
            f"got {u.shape}"
        )
    runs = []
    for f, each in enumerate(ops):
        if runs and runs[-1][1] is each:
            runs[-1] = (slice(runs[-1][0].start, f + 1), each)
        else:
            runs.append((slice(f, f + 1), each))
    return runs


def pairs_for(handle: GSHandle, method: str, runs: list, dtype) -> tuple:
    """``(PairPlan, [(fields, identity)])`` when a call folds in entry
    space — the pairwise exchange (or none), a pair numbering and ops
    with an exact identity for ``dtype``, one per run — else ``(None,
    None)``."""
    if method == "pairwise" or handle.comm.size == 1:
        dtype = np.dtype(dtype)
        idents = []
        for fields, op in runs:
            ident = identity(op, dtype)
            if ident is None:
                return None, None
            idents.append((fields, ident))
        return handle.pair_plan(), idents
    return None, None


def local_load(handle: GSHandle, pairs, idents, u: np.ndarray,
               runs: list, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``u``'s other operands when ``pairs`` is given
    (:meth:`~repro.gs.handle.PairPlan.load`; gathered into ``out``, the
    call's result, unless it overlaps ``u``), else its condense, each
    run of fields condensed with its own op."""
    if pairs is not None:
        if out is not None and not np.may_share_memory(out, u):
            check_out(out, u.shape, u.dtype)
            return pairs.load(u, idents, out)
        return pairs.load(u, idents)
    if len(runs) == 1:  # any stack, condensed as one
        return handle.condense(u, runs[0][1])
    cond = np.empty((len(u), handle.n_unique), dtype=u.dtype)
    for f, op in runs:
        cond[f] = handle.condense(u[f], op)
    return cond


def local_result(handle: GSHandle, pairs, data: np.ndarray, u: np.ndarray,
                 runs: list, out: Optional[np.ndarray]) -> np.ndarray:
    """The gs result of what :func:`local_load` gave for ``u``, after
    its exchange; a pair plan combines each run of fields with its own
    op."""
    if pairs is None:
        return handle.scatter(data, out=out)
    shape = data.shape[:-1] + pairs.shape
    if out is None:
        out = np.empty(shape, dtype=data.dtype)
    else:
        check_out(out, shape, data.dtype)
    for f, op in runs:
        pairs.combine(u[f], data[f], op.ufunc, out[f])
    return out


def gs_op(
    handle: GSHandle,
    u: np.ndarray,
    op: Union[ReduceOp, Sequence[ReduceOp]] = SUM,
    method: Optional[str] = None,
    site: Optional[str] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gather-scatter ``u`` in place of gslib's ``gs_op_``.

    Returns an array of the same shape where every set of entries
    sharing a global id holds their ``op``-combination: a new array, or
    ``out`` when given (C-contiguous, ``u``'s shape and dtype; ``u``
    itself is allowed — gslib's in-place form).  Collective: every rank
    in the handle's communicator must call with the same ``op`` and
    ``method``.

    ``u`` may be a stack ``(..., *handle.shape)`` of fields: the local
    passes then run once for the stack, while every field is exchanged,
    charged, profiled and traced as by its own call, in stack order.
    ``op`` is one op for every field, or, for a ``(nf, *handle.shape)``
    stack, a sequence of one op per field, so that fields which fold
    differently (a solver's SUM traces and its MAX wavespeed) share one
    call.  Each field is then loaded with its own op's identity, or
    condensed with its own op, and folded by its own op.  What a field
    costs does not depend on its op, so such a call charges exactly
    what one call per run of equal ops would.  The pairwise method
    hands the whole stack to one
    :meth:`~repro.gs.pairwise.PairwisePlan.exchange`, which folds it in
    place; the other two exchange field by field.  On a pair numbering
    the pairwise method exchanges entries of the handle's
    :class:`~repro.gs.handle.PairPlan` instead of a condense.
    """
    method = method or handle.method or "pairwise"
    if method not in METHODS:
        raise ValueError(
            f"unknown gs method {method!r}; choose from {sorted(METHODS)}"
        )
    u = np.asarray(u)
    runs = op_runs(op, u, handle.shape)
    pairs, idents = pairs_for(handle, method, runs, u.dtype)
    if pairs is not None and out is None:
        out = np.empty(u.shape, dtype=u.dtype)
    condensed = local_load(handle, pairs, idents, u, runs, out)
    comm = handle.comm
    local_pass = _local_pass(handle, u.dtype.itemsize)
    stack = condensed.reshape(
        prod(condensed.shape[:-1]), condensed.shape[-1]
    )
    if comm.size == 1:
        for _ in stack:
            comm.compute(seconds=local_pass)
    elif method == "pairwise":
        plan_for(handle).exchange(
            stack, runs, TAG_PAIRWISE, site or SITE_PAIRWISE, local_pass, pairs
        )
    else:
        exchange = METHODS[method]
        where = {} if site is None else {"site": site}
        for fields, each in runs:
            for field in stack[fields]:
                field[...] = exchange(handle, field, each, **where)
                comm.compute(seconds=local_pass)
    return local_result(handle, pairs, condensed, u, runs, out)


class GSExchange:
    """An in-flight split-phase gather-scatter (between begin/finish).

    Produced by :func:`gs_op_begin`; consumed exactly once by
    :func:`gs_op_finish`.  For the pairwise method the exchange is
    genuinely in flight (``pendings`` holds the posted receives,
    ``window`` the overlap window opened when they were posted); for the
    other methods it merely records the inputs for the synchronous
    fallback at finish.
    """

    __slots__ = (
        "handle", "op", "method", "site", "pendings", "window", "condensed",
        "pairs", "_done",
    )

    def __init__(
        self,
        handle: GSHandle,
        op: ReduceOp,
        method: str,
        site: str,
        condensed: np.ndarray,
        pairs: tuple,
    ):
        self.handle = handle
        self.op = op
        self.method = method
        self.site = site
        #: Condense of the values seen at begin (a pair plan's call: a
        #: copy of them); superseded when finish is handed a fully
        #: populated ``u``.
        self.condensed = condensed
        #: ``(PairPlan, identities)`` of an entry-space call (pairs_for).
        self.pairs = pairs
        #: Set by gs_op_begin when it posts (pairwise, several ranks).
        self.pendings = self.window = None
        self._done = False


def gs_op_begin(
    handle: GSHandle,
    u: np.ndarray,
    op: ReduceOp = SUM,
    method: Optional[str] = None,
    site: Optional[str] = None,
    tag: int = TAG_PAIRWISE,
) -> GSExchange:
    """Start a gather-scatter; return a handle for :func:`gs_op_finish`.

    With the pairwise method this posts the nonblocking sends and
    receives immediately and returns while they are in flight, so the
    caller can run interior compute under the exchange.  ``u`` only
    needs valid entries at the *cross-rank shared* ids (entries on
    boundary-element faces); everything else may still be unset,
    provided a fully populated array is handed to :func:`gs_op_finish`.

    With the crystal-router or allreduce methods (or on a single rank)
    nothing is posted here — the blocking exchange runs inside
    ``finish`` (synchronous fallback, see module docstring) — but the
    begin/finish structure is identical so callers never branch on the
    method.  Pass a distinct ``tag`` per concurrent in-flight exchange.
    ``op`` is one :class:`ReduceOp` for every field of ``u``; fields
    that fold differently share a call only through :func:`gs_op`.
    """
    method = method or handle.method or "pairwise"
    if method not in METHODS:
        raise ValueError(
            f"unknown gs method {method!r}; choose from {sorted(METHODS)}"
        )
    if not isinstance(op, ReduceOp):
        raise TypeError(f"gs_op_begin folds with one ReduceOp, got {op!r}")
    base_site = site or f"gs_op:{method}"
    u = np.asarray(u)
    # Condense is snapshotted in every case so finish can run even if
    # the caller never hands back a fully populated u (and, for the
    # fallback methods, so the exchange has its send values).  A u
    # passed to finish replaces this snapshot via re-condense.
    runs = op_runs(op, u, handle.shape)
    pairs, idents = pairs_for(handle, method, runs, u.dtype)
    if pairs is None:
        condensed = local_load(handle, pairs, idents, u, runs)
        values = condensed
    else:  # finish loads and combines; a pair plan sends entries
        condensed = u.copy()
        values = condensed.reshape(condensed.shape[:-len(pairs.shape)]
                                   + (pairs.n,))
    exchange = GSExchange(
        handle, op, method, base_site, condensed, (pairs, idents)
    )
    if method == "pairwise" and handle.comm.size > 1:
        # Only cross-rank shared entries are sent: callers may pass a
        # partially populated u (boundary traces before interior ones).
        exchange.pendings = plan_for(handle).post(
            values, tag, f"{base_site}:begin", pairs
        )
        exchange.window = handle.comm.clock.overlap_interval()
    return exchange


def gs_op_finish(
    exchange: GSExchange,
    u: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Complete a split-phase gather-scatter; return the scattered result
    (written into ``out`` when given, as in :func:`gs_op`).

    ``u`` — when given — is the *fully populated* local array (same
    shape as at begin); it is re-condensed here, which is what makes the
    deferred-interior pattern work: begin sent the boundary values, and
    the interior values only need to exist by the time finish folds the
    local contribution.  When ``u`` is omitted the condense snapshotted
    at begin is used.

    The wait charges only the communication still exposed after
    whatever compute ran since begin; the hidden remainder is credited
    to the clock's ``hidden_comm_time``.  The local condense+scatter
    compute charge is identical to :func:`gs_op`'s and is applied here,
    at finish, where the blocking path pays it too.
    """
    if exchange._done:
        raise ValueError("gs_op_finish called twice on the same exchange")
    exchange._done = True
    handle = exchange.handle
    op, (pairs, idents) = exchange.op, exchange.pairs
    condensed = exchange.condensed
    if u is not None and pairs is None:
        condensed = handle.condense(np.asarray(u), op)
    elif pairs is not None:
        u = condensed if u is None else np.asarray(u)
        condensed = pairs.load(u, idents)
    if exchange.pendings is not None:
        clock = handle.comm.clock
        wait_start = clock.now
        completion = plan_for(handle).complete(
            exchange.pendings, condensed, op, f"{exchange.site}:finish", pairs
        )
        # Overlap accounting: the blocking-equivalent wait is measured
        # from the posting time, the exposed wait from the finish time;
        # their difference was hidden under the intervening compute.
        if exchange.pendings:
            clock.close_overlap(
                exchange.window, completion, wait_start=wait_start
            )
    elif handle.comm.size > 1:
        # Synchronous fallback for methods without a nonblocking form:
        # the whole blocking exchange runs now, at finish time.
        condensed = METHODS[exchange.method](
            handle, condensed, op, site=f"{exchange.site}:finish"
        )
    out = local_result(handle, pairs, condensed, u, [(slice(None), op)], out)
    # Same local gather/scatter charge as the blocking gs_op (the
    # deferred re-condense replaces, not adds to, the one at begin).
    handle.comm.compute(seconds=_local_pass(handle, condensed.dtype.itemsize))
    return out
