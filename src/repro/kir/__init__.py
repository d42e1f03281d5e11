"""Kernel IR: contraction programs, rewrite passes, numpy codegen.

The tensor-product kernels of CMT-bone (derivative evaluation, the
spectral interpolation pair behind over-integration dealiasing, the
shock filter's modal transform) are all instances of one pattern: a
small stationary operator matrix contracted along one axis of a
streamed ``(nel, N, N, N)`` tensor.  This package is the *only*
implementation of that pattern —

* :mod:`repro.kir.ir` — the contraction IR (tensors, ``Contract``
  ops, validated ``Program``s) plus the program builders for
  ``dudr``/``duds``/``dudt``, ``grad`` and the dealias
  interpolations, and IR-derived flop/byte counts;
* :mod:`repro.kir.passes` — rewrite passes (GEMM batching, unroll by
  plane, contraction-chain reassociation) composed into the four
  named schedules;
* :mod:`repro.kir.lower` — lowering of scheduled programs to
  executable numpy source (``compile``/``exec``) with a documented
  seam for future cffi/numba backends;
* :mod:`repro.kir.library` — the variant table and the
  ``(program, N, Nel, variant)`` -> callable dispatch tier used by
  :mod:`repro.kernels`;
* :mod:`repro.kir.autotune` — per-host persistent schedule selection;
  imported only when ``variant="auto"`` is first resolved, so it is
  not re-exported here.

See ``docs/kernel-ir.md`` for the grammar and the pass pipeline.
"""

from .ir import (
    BATCH_AXIS,
    Contract,
    Program,
    PROGRAMS,
    Tensor,
    build_program,
    direction_program,
    program_flops,
    program_mem_bytes,
    tensor,
)
from .library import (
    CLI_VARIANTS,
    DEFAULT_SCHEDULE,
    KernelLibrary,
    VARIANT_SCHEDULE,
    default_library,
    reset_default_library,
    static_schedule,
)
from .lower import (
    DEFAULT_LOWERING,
    LOWERINGS,
    LoweredKernel,
    NumpyLowering,
    lower,
)
from .passes import (
    ORDER_PRESERVING,
    SCHEDULES,
    Scheduled,
    applicable_schedules,
    schedule,
)

__all__ = [
    "BATCH_AXIS",
    "CLI_VARIANTS",
    "Contract",
    "DEFAULT_LOWERING",
    "DEFAULT_SCHEDULE",
    "KernelLibrary",
    "LOWERINGS",
    "LoweredKernel",
    "NumpyLowering",
    "ORDER_PRESERVING",
    "PROGRAMS",
    "Program",
    "SCHEDULES",
    "Scheduled",
    "Tensor",
    "VARIANT_SCHEDULE",
    "applicable_schedules",
    "build_program",
    "default_library",
    "direction_program",
    "lower",
    "program_flops",
    "program_mem_bytes",
    "reset_default_library",
    "schedule",
    "static_schedule",
    "tensor",
]
