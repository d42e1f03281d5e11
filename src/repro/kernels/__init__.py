"""``repro.kernels`` — spectral-element compute kernels.

The computational heart of CMT-bone: GLL quadrature machinery, the
reference-element derivative/interpolation operators, the ``O(N^4)``
derivative kernel and the dealiasing transfer pair (argument checking
here, the contractions themselves compiled by :mod:`repro.kir` per
``fused``/``basic``/``einsum``/``auto`` variant), and the PAPI-style
analytic cost counters behind the Figs. 5-6 reproduction.
"""

from .counters import (
    CYCLES_PER_INST,
    INST_PER_FLOP,
    KernelCost,
    ir_counts,
    kernel_cost,
    roofline_seconds,
    speedup,
    working_set_bytes,
)
from .dealias import (
    dealias_flops,
    roundtrip,
    to_coarse,
    to_fine,
)
from .derivatives import (
    DIRECTIONS,
    derivative,
    dudr,
    duds,
    dudt,
    flops,
    grad,
    grad_workspace,
    mem_bytes,
)
from .gll import (
    barycentric_weights,
    gll_points,
    gll_weights,
    lagrange_basis_at,
    legendre_and_derivative,
)
from .operators import (
    dealias_order,
    derivative_matrix,
    interpolation_matrix,
)
from .workspace import BLOCK_BYTES, Workspace, as_elements, field_blocks

__all__ = [
    "BLOCK_BYTES",
    "CYCLES_PER_INST",
    "DIRECTIONS",
    "INST_PER_FLOP",
    "KernelCost",
    "Workspace",
    "as_elements",
    "barycentric_weights",
    "dealias_flops",
    "dealias_order",
    "derivative",
    "derivative_matrix",
    "dudr",
    "duds",
    "dudt",
    "field_blocks",
    "flops",
    "gll_points",
    "gll_weights",
    "grad",
    "grad_workspace",
    "interpolation_matrix",
    "ir_counts",
    "kernel_cost",
    "lagrange_basis_at",
    "legendre_and_derivative",
    "mem_bytes",
    "roofline_seconds",
    "roundtrip",
    "speedup",
    "to_coarse",
    "to_fine",
    "working_set_bytes",
]
