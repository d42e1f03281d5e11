"""The tensor-contraction IR: tensors, ops, and programs.

CMT-bone's hot kernels are all instances of one algebraic shape — a
small stationary operator matrix contracted against one axis of a big
``(nel, N, N, N)`` element batch (the paper's "derivative matrix of
size (N, N) operates over a 3D data (N, N, N, Nel)").  Instead of
hand-maintaining one numpy routine per (kernel, loop-schedule) pair,
this package describes each kernel *once* as a tiny program over one
op — :class:`Contract`, ``out = sum over sum_axes of a * b`` (einsum
semantics over named axes) — and derives the executable variants.

A :class:`Program` is a straight-line sequence of ops in SSA-ish form:
every op writes a tensor name exactly once, inputs are never written.
Axis names are single letters; the element axis ``e`` has dynamic size
(``None``), every other axis is specialized to a concrete integer at
program-build time (that is what lets the lowering emit constant
shapes and fully-unrolled loops).

The registry at the bottom holds the five flagship programs —
``dudr``/``duds``/``dudt`` (the Fig. 5/6 derivative kernels), ``grad``
(all three directions), and ``interp_fine``/``interp_coarse`` (the
Section-V dealiasing transfer pair).

Cost is a *property of the IR*, not of any particular lowering:
:func:`program_flops` / :func:`program_mem_bytes` walk the contraction
list, so every schedule is priced automatically (see
:mod:`repro.kernels.counters`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..records import checked

#: The dynamic (element-batch) axis name; its extent is resolved at
#: call time from the input array, never baked into generated source.
BATCH_AXIS = "e"


@checked
class Tensor(NamedTuple):
    """A named tensor with named axes and (mostly) concrete sizes.

    ``dims[i]`` is ``None`` exactly when ``axes[i]`` is the dynamic
    :data:`BATCH_AXIS`; all other extents are concrete ints.
    """

    name: str
    axes: Tuple[str, ...]
    dims: Tuple[Optional[int], ...]

    def _check(self) -> None:
        if len(self.axes) != len(self.dims):
            raise ValueError(
                f"tensor {self.name!r}: {len(self.axes)} axes but "
                f"{len(self.dims)} dims"
            )
        if len(set(self.axes)) != len(self.axes):
            raise ValueError(
                f"tensor {self.name!r}: repeated axis in {self.axes}"
            )
        for ax, d in zip(self.axes, self.dims):
            if (d is None) != (ax == BATCH_AXIS):
                raise ValueError(
                    f"tensor {self.name!r}: axis {ax!r} has extent {d!r} "
                    f"(only the {BATCH_AXIS!r} axis may be dynamic)"
                )

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def size(self, nel: int) -> int:
        """Element count with the batch axis bound to ``nel``."""
        total = 1
        for d in self.dims:
            total *= nel if d is None else d
        return total

    def extent(self, axis: str, nel: int = 1) -> int:
        d = self.dims[self.axes.index(axis)]
        return nel if d is None else d

    def describe(self) -> str:
        dims = ",".join(
            "nel" if d is None else str(d) for d in self.dims
        )
        return f"{self.name}[{','.join(self.axes)}]({dims})"


def tensor(name: str, spec: str, **sizes: int) -> Tensor:
    """Shorthand constructor: ``tensor("u", "emjk", m=5, j=5, k=5)``.

    Every non-batch axis letter in ``spec`` must get a size binding.
    """
    dims: List[Optional[int]] = []
    for ax in spec:
        if ax == BATCH_AXIS:
            dims.append(None)
        else:
            try:
                dims.append(int(sizes[ax]))
            except KeyError:
                raise ValueError(
                    f"axis {ax!r} of {name!r} has no size binding"
                ) from None
    return Tensor(name=name, axes=tuple(spec), dims=tuple(dims))


# ---------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------


@checked
class Contract(NamedTuple):
    """``out[out_axes] = sum_{sum_axes} a[a_axes] * b[b_axes]``.

    Einsum semantics: axes shared between ``a`` and ``b`` that appear
    in ``sum_axes`` are contracted; all others must appear in ``out``.
    """

    out: Tensor
    a: Tensor
    b: Tensor
    sum_axes: Tuple[str, ...]

    def _check(self) -> None:
        in_axes = set(self.a.axes) | set(self.b.axes)
        for ax in self.sum_axes:
            if ax not in self.a.axes or ax not in self.b.axes:
                raise ValueError(
                    f"contract -> {self.out.name}: summed axis {ax!r} "
                    "must appear in both operands"
                )
            if ax in self.out.axes:
                raise ValueError(
                    f"contract -> {self.out.name}: summed axis {ax!r} "
                    "also appears in the output"
                )
        for ax in self.out.axes:
            if ax not in in_axes:
                raise ValueError(
                    f"contract -> {self.out.name}: output axis {ax!r} "
                    "appears in neither operand"
                )

    @property
    def spec(self) -> str:
        """The einsum subscript string of this contraction."""
        return (
            f"{''.join(self.a.axes)},{''.join(self.b.axes)}"
            f"->{''.join(self.out.axes)}"
        )

    def flops(self, nel: int) -> float:
        k = 1
        for ax in self.sum_axes:
            k *= self.a.extent(ax, nel)
        return 2.0 * self.out.size(nel) * k

    def reads(self) -> Tuple[Tensor, ...]:
        return (self.a, self.b)


# ---------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------


@checked
class Program(NamedTuple):
    """A straight-line contraction program.

    ``inputs`` fixes the positional calling convention of every
    lowering (``fn(*inputs, out=None)``); ``outputs`` name the result
    tensors in return order.  ``body`` ops execute in sequence; every
    non-input tensor is written exactly once before it is read.
    """

    name: str
    inputs: Tuple[Tensor, ...]
    outputs: Tuple[Tensor, ...]
    body: Tuple[Contract, ...]
    #: Parameters the program was specialized with (for cache keys and
    #: reports), e.g. ``{"n": 10}`` or ``{"n": 10, "m": 15}``.
    #: Never mutated, so one empty default serves every program.
    params: Dict[str, int] = {}

    def _check(self) -> None:
        # Axis *names* are op-local einsum subscripts; storage identity
        # is (name, dims).  The same input may be read under different
        # subscript labellings (grad reads u as e,a,b,c three times
        # with a different axis contracted each time) as long as the
        # shape agrees.
        defined: Dict[str, Tuple[Optional[int], ...]] = {
            t.name: t.dims for t in self.inputs
        }
        if len(defined) != len(self.inputs):
            raise ValueError(f"{self.name}: duplicate input name")
        for op in self.body:
            for t in op.reads():
                seen = defined.get(t.name)
                if seen is None:
                    raise ValueError(
                        f"{self.name}: op reads undefined tensor "
                        f"{t.name!r}"
                    )
                if seen != t.dims:
                    raise ValueError(
                        f"{self.name}: tensor {t.name!r} read with "
                        f"shape {t.dims}, defined with {seen}"
                    )
            if op.out.name in defined:
                raise ValueError(
                    f"{self.name}: tensor {op.out.name!r} written twice"
                )
            defined[op.out.name] = op.out.dims
        for t in self.outputs:
            if defined.get(t.name) != t.dims:
                raise ValueError(
                    f"{self.name}: output {t.name!r} is never computed"
                )

    def describe(self) -> str:
        lines = [f"program {self.name}"
                 f"({', '.join(t.describe() for t in self.inputs)})"
                 f" -> {', '.join(t.name for t in self.outputs)}:"]
        for op in self.body:
            lines.append(
                f"  {op.out.name} = contract[{op.spec}]"
                f"({op.a.name}, {op.b.name})"
            )
        return "\n".join(lines)


def program_flops(prog: Program, nel: int) -> float:
    """Floating-point operations of one program execution.

    Derived from the contraction list — ``2 * |out| * |contracted|``
    per :class:`Contract` — so any program added to the registry is
    priced with no per-variant hand formula.
    """
    return sum(op.flops(nel) for op in prog.body)


def program_mem_bytes(prog: Program, nel: int) -> float:
    """Minimum memory traffic of one program execution, in bytes of
    8-byte doubles.

    Counts every *streamed* tensor touched by each op — operands and
    result carrying the dynamic element axis.  Stationary operator
    matrices (``N x N``-ish, no batch axis) are assumed cache-resident
    and excluded, matching the closed-form ``16 N^3 nel`` accounting
    the counters model has always used for the derivative kernels.
    """

    def streamed(t: Tensor) -> bool:
        return BATCH_AXIS in t.axes

    total = 0
    for op in prog.body:
        for t in op.reads():
            if streamed(t):
                total += t.size(nel)
        if streamed(op.out):
            total += op.out.size(nel)
    return float(8 * total)


# ---------------------------------------------------------------------
# the flagship programs
# ---------------------------------------------------------------------

#: Direction letter -> index position contracted in the field tensor.
_DERIV_AXIS = {"r": 1, "s": 2, "t": 3}


def _derivative_program(direction: str, n: int) -> Program:
    """``dud{direction}``: contract the operator against one axis.

    The field is ``u[e,m?,...]`` with the contracted axis ``m``
    standing in the direction's slot; the operator row axis takes its
    place in the output — e.g. ``duds``: ``out[e,i,j,k] =
    sum_m D[j,m] u[e,i,m,k]``.
    """
    slot = _DERIV_AXIS[direction]
    out_axes = "eijk"
    row = out_axes[slot]
    in_axes = out_axes[:slot] + "m" + out_axes[slot + 1:]
    u = tensor("u", in_axes, **{ax: n for ax in in_axes if ax != "e"})
    dmat = tensor("D", row + "m", **{row: n, "m": n})
    out = tensor("du", out_axes, i=n, j=n, k=n)
    return Program(
        name=f"dud{direction}",
        inputs=(u, dmat),
        outputs=(out,),
        body=(Contract(out=out, a=dmat, b=u, sum_axes=("m",)),),
        params={"n": n},
    )


def _grad_program(n: int) -> Program:
    """All three reference-space derivatives of one field.

    The field ``u[e,a,b,c]`` is read three times, contracting a
    different axis each time against the same operator matrix:

    * ``du_r[e,x,b,c] = sum_a D[x,a] u[e,a,b,c]``
    * ``du_s[e,a,y,c] = sum_b D[y,b] u[e,a,b,c]``
    * ``du_t[e,a,b,z] = sum_c D[z,c] u[e,a,b,c]``
    """
    u = tensor("u", "eabc", a=n, b=n, c=n)
    dmat = tensor("D", "xa", x=n, a=n)
    ops: List[Contract] = []
    outs: List[Tensor] = []
    for slot, (row, col) in enumerate(
        (("x", "a"), ("y", "b"), ("z", "c")), start=1
    ):
        out_axes = list(u.axes)
        out_axes[slot] = row
        out = Tensor(
            f"du_{'rst'[slot - 1]}", tuple(out_axes), (None, n, n, n)
        )
        ops.append(
            Contract(
                out=out,
                a=Tensor("D", (row, col), (n, n)),
                b=u,
                sum_axes=(col,),
            )
        )
        outs.append(out)
    return Program(
        name="grad",
        inputs=(u, dmat),
        outputs=tuple(outs),
        body=tuple(ops),
        params={"n": n},
    )


def _interp_program(name: str, n_from: int, n_to: int) -> Program:
    """Tensor-product application of a 1-D transfer operator.

    The dealiasing pair ("an element is first mapped to a finer mesh
    and later mapped back"): apply ``J (n_to, n_from)`` along each of
    the three non-batch axes in r, s, t order — the canonical
    association; the reassociation pass may reorder it.
    """
    u = tensor("u", "eabc", a=n_from, b=n_from, c=n_from)
    j = tensor("J", "xa", x=n_to, a=n_from)
    # apply along axis 1 (r): contract a against J's column axis
    t1 = Tensor("t1", ("e", "x", "b", "c"), (None, n_to, n_from, n_from))
    c1 = Contract(
        out=t1,
        a=Tensor("J", ("x", "a"), (n_to, n_from)),
        b=u,
        sum_axes=("a",),
    )
    t2 = Tensor("t2", ("e", "x", "y", "c"), (None, n_to, n_to, n_from))
    c2 = Contract(
        out=t2,
        a=Tensor("J", ("y", "b"), (n_to, n_from)),
        b=t1,
        sum_axes=("b",),
    )
    out = Tensor("v", ("e", "x", "y", "z"), (None, n_to, n_to, n_to))
    c3 = Contract(
        out=out,
        a=Tensor("J", ("z", "c"), (n_to, n_from)),
        b=t2,
        sum_axes=("c",),
    )
    return Program(
        name=name,
        inputs=(u, j),
        outputs=(out,),
        body=(c1, c2, c3),
        params={"n": n_from, "m": n_to},
    )


#: Names of every registered program family.
PROGRAMS = ("dudr", "duds", "dudt", "grad", "interp_fine", "interp_coarse")


@lru_cache(maxsize=None)
def build_program(name: str, n: int, m: Optional[int] = None) -> Program:
    """Instantiate a registry program at concrete sizes.

    ``m`` is the fine-grid size for the interp programs (defaults to
    the 3/2-rule) and ignored elsewhere.
    """
    if name in ("dudr", "duds", "dudt"):
        return _derivative_program(name[-1], n)
    if name == "grad":
        return _grad_program(n)
    if name in ("interp_fine", "interp_coarse"):
        if m is None:
            from ..kernels.operators import dealias_order

            m = dealias_order(n)
        if name == "interp_fine":
            return _interp_program(name, n, m)
        return _interp_program(name, m, n)
    raise KeyError(f"unknown program {name!r} (known: {PROGRAMS})")


def direction_program(direction: str) -> str:
    """Map a derivative direction letter to its program name."""
    if direction not in _DERIV_AXIS:
        raise ValueError(f"unknown direction {direction!r}")
    return f"dud{direction}"
