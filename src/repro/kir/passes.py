"""Rewrite passes: from contraction programs to loop schedules.

A :class:`~repro.kir.ir.Program` says *what* to compute; a schedule
says *how*.  Passes are pure functions ``Scheduled -> Scheduled`` (or
``Program -> Program`` for algebraic rewrites) composed into named
pipelines — the same dialect-and-rewrite structure xdsl uses for its
stencil lowering, shrunk to the one op this mini-app needs.

The passes
----------

``to_gemm_form``
    Recognize each :class:`~repro.kir.ir.Contract` as a *stationary
    operator applied along one axis* of a streamed tensor and batch it
    into GEMM normal form: leading axes fuse into the matmul batch
    dimension, trailing axes fuse into the column block (this is the
    loop/axis *fusion* the paper performs by hand on ``dudr``/``dudt``
    — and its partial failure on ``duds`` falls out as the batch group
    simply stopping at the contracted axis).

``unroll_by_plane``
    The inverse knob: peel batched axes back into explicit Python
    loops until each op is a single small 2-D product per plane — the
    paper's "basic implementation".  Lowering this schedule reproduces
    the reference ``basic`` loops (``tests/kernel_oracles.py``)
    statement for statement (and bitwise).

``reassociate``
    Reorder an independent chain of axis applications (the dealias
    interpolation applies the transfer matrix along r, then s, then
    t; any order is algebraically valid).  Changes float association,
    so reassociated candidates are screened numerically, not bitwise.

Pipelines are registered in :data:`SCHEDULES`; a schedule that does
not apply to a program (e.g. ``gemm_rev`` on ``dudr``, which is a
single contraction, not a chain) raises :class:`NotApplicable` and the
tuner skips it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple, Union

from .ir import BATCH_AXIS, Contract, Program, Tensor


class NotApplicable(ValueError):
    """The requested schedule does not apply to this program."""


# ---------------------------------------------------------------------
# scheduled form
# ---------------------------------------------------------------------


class AxisApply(NamedTuple):
    """GEMM-normal form of one stationary-operator contraction.

    ``out = W applied along axis ``axis`` of ``t`` — with a schedule:
    the first ``lead_loops`` axes of ``t`` (and correspondingly of
    ``out``) run as explicit Python loops, as do the last
    ``trail_loops`` axes; everything in between is fused into one
    batched matmul by the lowering.
    """

    out: Tensor
    t: Tensor
    w: Tensor
    axis: int
    #: Position of the contracted axis within ``w.axes`` (0 or 1).
    w_sum_pos: int
    lead_loops: int = 0
    trail_loops: int = 0

    @property
    def right_apply(self) -> bool:
        """True when the contracted axis is the last axis of ``t``."""
        return self.axis == self.t.ndim - 1

    def reads(self) -> Tuple[Tensor, ...]:
        return (self.t, self.w)


SchedOp = Union[AxisApply, Contract]


class Scheduled(NamedTuple):
    """A program plus the schedule chosen for it."""

    program: Program
    schedule: str
    ops: Tuple[SchedOp, ...]

    def describe(self) -> str:
        lines = [f"schedule {self.schedule} of {self.program.name}:"]
        for op in self.ops:
            if isinstance(op, AxisApply):
                form = "right" if op.right_apply else "left"
                lines.append(
                    f"  {op.out.name} = apply[{form}, axis={op.axis}, "
                    f"loops={op.lead_loops}+{op.trail_loops}]"
                    f"({op.w.name}, {op.t.name})"
                )
            else:
                lines.append(
                    f"  {op.out.name} = einsum[{op.spec}]"
                    f"({op.a.name}, {op.b.name})"
                )
        return "\n".join(lines)


def _classify(op: Contract) -> AxisApply:
    """Recognize a Contract as a stationary axis application."""
    if len(op.sum_axes) != 1:
        raise NotApplicable(
            f"{op.out.name}: multi-axis contraction not in apply form"
        )
    sum_ax = op.sum_axes[0]
    streamed, stationary = op.b, op.a
    if BATCH_AXIS in op.a.axes and BATCH_AXIS not in op.b.axes:
        streamed, stationary = op.a, op.b
    elif not (BATCH_AXIS in op.b.axes and BATCH_AXIS not in op.a.axes):
        raise NotApplicable(
            f"{op.out.name}: exactly one operand must carry the "
            f"{BATCH_AXIS!r} axis"
        )
    if stationary.ndim != 2:
        raise NotApplicable(
            f"{op.out.name}: stationary operand {stationary.name!r} "
            "is not a matrix"
        )
    w_sum_pos = stationary.axes.index(sum_ax)
    row_ax = stationary.axes[1 - w_sum_pos]
    axis = streamed.axes.index(sum_ax)
    if axis == 0:
        raise NotApplicable(
            f"{op.out.name}: cannot contract the batch axis"
        )
    expect = list(streamed.axes)
    expect[axis] = row_ax
    if tuple(expect) != op.out.axes:
        raise NotApplicable(
            f"{op.out.name}: output axes {op.out.axes} are not the "
            f"in-place replacement of {streamed.axes}"
        )
    return AxisApply(
        out=op.out, t=streamed, w=stationary, axis=axis,
        w_sum_pos=w_sum_pos,
    )


# ---------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------


def to_gemm_form(s: Scheduled) -> Scheduled:
    """Batch every contraction into fully-fused GEMM normal form."""
    ops: List[SchedOp] = []
    for op in s.ops:
        ops.append(_classify(op) if isinstance(op, Contract) else op)
    return s._replace(ops=tuple(ops))


def unroll_by_plane(s: Scheduled) -> Scheduled:
    """Peel batched axes into loops until each product is 2-D.

    Left applications keep the ``(contracted, next)`` plane and loop
    everything else — leading axes before the contracted slot, then
    trailing axes beyond the plane (``dudr`` loops ``e`` and ``k``,
    operating on the (r, s) plane, exactly like the reference
    basic loops).  Right applications loop leading axes until the
    trailing ``(row, contracted)`` plane remains.
    """
    ops: List[SchedOp] = []
    for op in s.ops:
        if not isinstance(op, AxisApply):
            ops.append(op)
            continue
        if op.right_apply:
            lead, trail = op.t.ndim - 2, 0
        else:
            lead = op.axis
            trail = op.t.ndim - op.axis - 2
        ops.append(op._replace(lead_loops=lead, trail_loops=trail))
    return s._replace(ops=tuple(ops))


def reassociate(prog: Program, order: Sequence[int]) -> Program:
    """Reorder an axis-application chain (algebraic rewrite).

    The body must be a pure Contract chain — op ``i+1`` consumes op
    ``i``'s result — where every op applies a stationary matrix along
    a *distinct* axis slot, as the interp programs do.  The rewritten
    chain applies the same operators in ``order``; intermediate
    shapes are recomputed.  Association of the floating-point sums
    changes, so results match only to roundoff.
    """
    body = prog.body
    if sorted(order) != list(range(len(body))):
        raise ValueError(f"order {order!r} is not a permutation")
    if list(order) == list(range(len(body))):
        raise NotApplicable(f"{prog.name}: identity reassociation")
    if len(body) < 2:
        raise NotApplicable(
            f"{prog.name}: body is not a contraction chain"
        )
    chain: List[AxisApply] = [_classify(o) for o in body]
    for prev, nxt in zip(body[:-1], body[1:]):
        if nxt.b.name != prev.out.name and nxt.a.name != prev.out.name:
            raise NotApplicable(
                f"{prog.name}: op {nxt.out.name} does not consume the "
                "previous result"
            )
    slots = [a.axis for a in chain]
    if len(set(slots)) != len(slots):
        raise NotApplicable(
            f"{prog.name}: chain applies to a repeated axis slot"
        )
    running = chain[0].t
    new_body: List[Contract] = []
    for step, idx in enumerate(order):
        a = chain[idx]
        row_ax = a.w.axes[1 - a.w_sum_pos]
        row_dim = a.w.dims[1 - a.w_sum_pos]
        sum_ax = a.w.axes[a.w_sum_pos]
        axes = list(running.axes)
        dims = list(running.dims)
        # Relabel the contracted slot of the running tensor to the
        # operator's column subscript, then replace it with the row.
        in_t = Tensor(
            running.name,
            tuple(
                sum_ax if p == a.axis else ax
                for p, ax in enumerate(axes)
            ),
            tuple(dims),
        )
        axes[a.axis] = row_ax
        dims[a.axis] = row_dim
        last = step == len(order) - 1
        out_name = (
            prog.outputs[0].name if last else f"q{step + 1}"
        )
        out_t = Tensor(out_name, tuple(axes), tuple(dims))
        new_body.append(
            Contract(out=out_t, a=a.w, b=in_t, sum_axes=(sum_ax,))
        )
        running = out_t
    if running.dims != prog.outputs[0].dims:
        raise NotApplicable(
            f"{prog.name}: reassociation changed the output shape"
        )
    return Program(
        name=prog.name,
        inputs=prog.inputs,
        outputs=(running,),
        body=tuple(new_body),
        params=dict(prog.params),
    )


# ---------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------


def _pipe_gemm(prog: Program) -> Scheduled:
    return to_gemm_form(
        Scheduled(program=prog, schedule="gemm", ops=prog.body)
    )


def _pipe_plane(prog: Program) -> Scheduled:
    s = to_gemm_form(
        Scheduled(program=prog, schedule="plane", ops=prog.body)
    )
    return unroll_by_plane(s)


def _pipe_einsum(prog: Program) -> Scheduled:
    # Contractions lower directly to np.einsum; no scheduling.
    return Scheduled(program=prog, schedule="einsum", ops=prog.body)


def _pipe_gemm_rev(prog: Program) -> Scheduled:
    rev = reassociate(prog, list(range(len(prog.body)))[::-1])
    return to_gemm_form(
        Scheduled(program=rev, schedule="gemm_rev", ops=rev.body)
    )


#: Named schedule pipelines, in default candidate order.  ``gemm``
#: first: it is the reference-quality fully-fused lowering and what
#: the default ``fused`` variant runs.
SCHEDULES: Dict[str, Callable[[Program], Scheduled]] = {
    "gemm": _pipe_gemm,
    "plane": _pipe_plane,
    "einsum": _pipe_einsum,
    "gemm_rev": _pipe_gemm_rev,
}

#: Schedules whose lowering preserves the exact contraction order and
#: association of the reference implementation (bitwise-reproducible
#: against the oracles in ``tests/kernel_oracles.py``); the rest are
#: only guaranteed to roundoff and are numerically screened by the
#: autotuner.
ORDER_PRESERVING = ("gemm", "plane", "einsum")


def schedule(prog: Program, name: str) -> Scheduled:
    """Run the named pipeline over a program."""
    try:
        pipe = SCHEDULES[name]
    except KeyError:
        raise KeyError(
            f"unknown schedule {name!r} (known: {sorted(SCHEDULES)})"
        ) from None
    return pipe(prog)


def applicable_schedules(prog: Program) -> Tuple[str, ...]:
    """The schedule names that apply to ``prog``, in candidate order."""
    names = []
    for name, pipe in SCHEDULES.items():
        try:
            pipe(prog)
        except NotApplicable:
            continue
        names.append(name)
    return tuple(names)
