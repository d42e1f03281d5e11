"""``repro.solver`` — the conceptual CMT-nek: a parallel DG Euler solver.

Implements the paper's conceptual model (Section III-B): the
conservation law for ``U = (rho, momentum, energy)`` discretized with
discontinuous-Galerkin spectral elements — volume flux divergence via
the derivative kernels, ``full2face`` trace extraction, gather-scatter
face exchange, numerical flux, and explicit SSP-RK time stepping.
"""

from .boundary import (
    BoundaryHandler,
    BoundarySpec,
)
from .riemann import (
    PrimitiveState,
    RiemannSolution,
    SOD_LEFT,
    SOD_RIGHT,
    exact_riemann,
    sod_problem,
)
from .checkpoint import (
    CheckpointError,
    CheckpointInfo,
    checkpoint_namespace,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from .divergence import (
    divergence_flops,
    flux_divergence,
    flux_divergence_multi,
    gradient_physical,
)
from .driver import (
    AttemptRecord,
    CMTSolver,
    FaultRunReport,
    SolverConfig,
    StepStats,
    run_with_recovery,
)
from .eos import IdealGas
from .flux import euler_flux, euler_fluxes, flux_flops, wavespeed
from .numflux import lax_friedrichs
from .shock import (
    ShockFilter,
    exponential_sigma,
    modal_to_nodal,
    nodal_to_modal,
    smoothness_sensor,
)
from .rk import cfl_dt, step_ssprk3
from .state import (
    COMPONENT_NAMES,
    ENERGY,
    MX,
    MY,
    MZ,
    NEQ,
    RHO,
    FlowState,
    from_primitives,
    uniform_state,
)
from .viscous import (
    ViscousModel,
    velocity_and_temperature,
    viscous_fluxes,
)
from .surface import (
    FACE_NORMAL_AXIS,
    FACE_NORMAL_SIGN,
    face2full_add,
    full2face,
    full2face_multi,
)

__all__ = [
    "AttemptRecord",
    "BoundaryHandler",
    "BoundarySpec",
    "CMTSolver",
    "CheckpointError",
    "CheckpointInfo",
    "FaultRunReport",
    "COMPONENT_NAMES",
    "ENERGY",
    "FACE_NORMAL_AXIS",
    "FACE_NORMAL_SIGN",
    "FlowState",
    "IdealGas",
    "MX",
    "MY",
    "MZ",
    "NEQ",
    "PrimitiveState",
    "RHO",
    "RiemannSolution",
    "SOD_LEFT",
    "SOD_RIGHT",
    "ShockFilter",
    "SolverConfig",
    "ViscousModel",
    "StepStats",
    "cfl_dt",
    "divergence_flops",
    "euler_flux",
    "exact_riemann",
    "exponential_sigma",
    "euler_fluxes",
    "face2full_add",
    "flux_divergence",
    "flux_divergence_multi",
    "flux_flops",
    "from_primitives",
    "full2face",
    "full2face_multi",
    "gradient_physical",
    "lax_friedrichs",
    "checkpoint_namespace",
    "load_checkpoint",
    "modal_to_nodal",
    "nodal_to_modal",
    "read_manifest",
    "run_with_recovery",
    "save_checkpoint",
    "smoothness_sensor",
    "sod_problem",
    "step_ssprk3",
    "uniform_state",
    "velocity_and_temperature",
    "viscous_fluxes",
    "wavespeed",
]
