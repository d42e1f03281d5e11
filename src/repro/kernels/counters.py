"""PAPI-style analytic counters for the derivative kernel study.

The paper measures total instructions and total cycles with PAPI on an
AMD Opteron 6378 (Figs. 5 and 6) and draws three conclusions:

1. loop fusion + unrolling cuts ``dudt`` instructions ~2.8x and makes
   it 2.31x faster;
2. ``dudr`` barely benefits (1.03x) — the compiler already vectorizes
   the unit-stride loop;
3. ``duds`` shows *no* improvement: the middle-index access pattern
   forbids fusion and the vectorization win is offset by cache misses.

Hardware counters are not available here, so this module provides an
analytic replacement with two ingredients:

* a *structural* flop/byte count walked off the contraction IR
  (:func:`ir_counts`; ``2 N^4 nel`` flops per direction), and
* per ``(direction, schedule)`` microarchitectural coefficients —
  instructions-per-flop (how well the loop form vectorizes) and
  cycles-per-instruction (stalls from the access pattern) — calibrated
  once against the paper's published PAPI numbers at their operating
  point (N=5, Nel=1563, 1000 steps; see table below) and then *reused
  unchanged* across every N, Nel in our sweeps.

Calibration table (derived from Figs. 5/6; F = 2 N^4 Nel steps flops;
the paper's "fused" is the ``gemm`` schedule, its "basic" is ``plane``):

    kernel        paper inst    inst/flop   paper cycles   CPI
    dudt fused    1.159e9       0.593       0.762e9        0.658
    dudr fused    2.402e9       1.229       1.355e9        0.564
    duds fused    2.595e9       1.328       1.468e9        0.566
    dudt basic    3.220e9       1.648       1.695e9        0.527
    dudr basic    2.429e9       1.243       1.394e9        0.574
    duds basic    (no improvement reported)  -> same as fused

The *ratios* these coefficients imply — speedups of 2.31x / 1.03x /
1.00x for dudt / dudr / duds — are the reproduction target; absolute
seconds differ from the paper (its runtime column is not mutually
consistent with its own cycle counts at 2.4 GHz, see EXPERIMENTS.md).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

from ..kir.ir import (
    build_program,
    direction_program,
    program_flops,
    program_mem_bytes,
)
from ..kir.library import static_schedule
from ..perfmodel.machine import MachineModel
from .derivatives import DIRECTIONS

#: Instructions per flop, calibrated per (direction, schedule).
INST_PER_FLOP: Dict[Tuple[str, str], float] = {
    ("t", "gemm"): 0.593,
    ("r", "gemm"): 1.229,
    ("s", "gemm"): 1.328,
    ("t", "plane"): 1.648,
    ("r", "plane"): 1.243,
    ("s", "plane"): 1.328,
}

#: Cycles per instruction, calibrated per (direction, schedule).
CYCLES_PER_INST: Dict[Tuple[str, str], float] = {
    ("t", "gemm"): 0.658,
    ("r", "gemm"): 0.564,
    ("s", "gemm"): 0.566,
    ("t", "plane"): 0.527,
    ("r", "plane"): 0.574,
    ("s", "plane"): 0.566,
}

#: Fallback coefficients for schedules without calibration data
#: (``einsum``): treat as fused-quality code.
_FALLBACK_IPF = 1.0
_FALLBACK_CPI = 0.6

#: L1-resident working set gives full-speed CPI; larger working sets
#: pay this multiplicative stall penalty on strided directions.
_L1_MISS_CPI_PENALTY = 1.15


class KernelCost(NamedTuple):
    """Modelled cost of one derivative-kernel invocation."""

    direction: str
    variant: str
    n: int
    nel: int
    steps: int
    flops: float
    mem_bytes: float
    instructions: float
    cycles: float
    seconds: float

    def row(self) -> Tuple[str, float, float, float]:
        """(label, runtime, instructions, cycles) — a Fig. 5/6 row."""
        return (f"dud{self.direction}", self.seconds, self.instructions,
                self.cycles)


def _coeffs(direction: str, sched: str) -> Tuple[float, float]:
    key = (direction, sched)
    return (
        INST_PER_FLOP.get(key, _FALLBACK_IPF),
        CYCLES_PER_INST.get(key, _FALLBACK_CPI),
    )


def working_set_bytes(n: int) -> int:
    """Per-element working set: field + result + derivative matrix."""
    return 8 * (2 * n**3 + n**2)


@lru_cache(maxsize=None)  # the mini-app prices every step
def ir_counts(direction: str, n: int, nel: int) -> Tuple[float, float]:
    """(flops, mem_bytes) derived from the contraction IR.

    Walks the direction's IR program: each ``Contract`` contributes
    ``2 * |out| * |contracted|`` flops, and memory traffic counts the
    streamed (element-batched) tensors once each.  For the derivative
    programs these equal the hand formulas ``2 N^4 nel`` and
    ``16 N^3 nel`` exactly — the test suite asserts this for every N —
    but unlike the hand formulas they stay correct automatically for
    any new program added to the registry.
    """
    prog = build_program(direction_program(direction), n)
    return program_flops(prog, nel), program_mem_bytes(prog, nel)


def kernel_cost(
    direction: str,
    variant: str,
    n: int,
    nel: int,
    steps: int = 1,
    machine: MachineModel | None = None,
) -> KernelCost:
    """Model instructions, cycles, and runtime for a derivative kernel.

    ``variant`` is any name the kernel library resolves; structural
    counts come from the IR and the coefficients from the schedule the
    name statically means — ``auto`` prices as the *default* schedule,
    not the host-tuned winner, so modelled (virtual) time stays
    host-independent.  ``steps`` multiplies everything (the paper runs
    1000 time steps).  The CPI picks up a stall penalty on the strided
    directions (s, r) when the per-element working set exceeds the
    machine's L1 — the "large number of cache misses due to poor data
    locality" the paper blames for duds.
    """
    ipf, cpi = _coeffs(direction, static_schedule(variant))
    fl, mb = ir_counts(direction, n, nel)
    fl *= steps
    mb *= steps
    machine = machine or MachineModel.preset("opteron6378")
    if direction in ("s", "r") and working_set_bytes(n) > machine.cpu.l1_dcache:
        cpi *= _L1_MISS_CPI_PENALTY
    instructions = fl * ipf
    cycles = instructions * cpi
    seconds = cycles / machine.cpu.ghz
    return KernelCost(
        direction=direction,
        variant=variant,
        n=n,
        nel=nel,
        steps=steps,
        flops=fl,
        mem_bytes=mb,
        instructions=instructions,
        cycles=cycles,
        seconds=seconds,
    )


def speedup(
    direction: str,
    n: int,
    nel: int,
    machine: MachineModel | None = None,
) -> float:
    """Modelled fused-over-basic speedup for one direction.

    At the paper's operating point this returns ~2.2-2.3 for ``t``,
    ~1.03 for ``r``, and 1.0 for ``s`` (cf. Section V).
    """
    basic = kernel_cost(direction, "basic", n, nel, machine=machine)
    fused = kernel_cost(direction, "fused", n, nel, machine=machine)
    return basic.seconds / fused.seconds


def roofline_seconds(
    n: int,
    nel: int,
    machine: MachineModel,
    variant: str = "fused",
) -> float:
    """Roofline-style single-number estimate used by the mini-app loop.

    Averages the per-direction calibrated efficiencies into one compute
    charge; this is what :class:`repro.core.cmtbone.CMTBone` bills per
    right-hand-side evaluation.
    """
    total = 0.0
    for d in DIRECTIONS:
        total += kernel_cost(d, variant, n, nel, machine=machine).seconds
    return total
