"""``repro.solver`` — the conceptual CMT-nek: a parallel DG Euler solver.

Implements the paper's conceptual model (Section III-B): the
conservation law for ``U = (rho, momentum, energy)`` discretized with
discontinuous-Galerkin spectral elements — volume flux divergence via
the derivative kernels, ``full2face`` trace extraction, gather-scatter
face exchange, numerical flux, and explicit SSP-RK time stepping.
"""

from .. import _lazy_exports

#: Public names by the submodule that defines them.  A submodule is
#: imported when one of its names is first read (PEP 562), so code that
#: needs only the face traces (``repro.core.cmtbone``) imports
#: ``repro.solver.surface`` without the solver.
_EXPORTS = {
    "boundary": "BoundaryHandler BoundarySpec",
    "checkpoint": "CheckpointError CheckpointInfo checkpoint_namespace "
                  "load_checkpoint read_manifest save_checkpoint",
    "divergence": "divergence_flops flux_divergence flux_divergence_multi "
                  "gradient_physical",
    "driver": "AttemptRecord CMTSolver FaultRunReport SolverConfig "
              "StepStats run_with_recovery",
    "eos": "IdealGas",
    "flux": "euler_flux euler_fluxes flux_flops wavespeed",
    "numflux": "lax_friedrichs",
    "riemann": "PrimitiveState RiemannSolution SOD_LEFT SOD_RIGHT "
               "exact_riemann sod_problem",
    "rk": "cfl_dt step_ssprk3",
    "shock": "ShockFilter exponential_sigma modal_to_nodal nodal_to_modal "
             "smoothness_sensor",
    "state": "COMPONENT_NAMES ENERGY MX MY MZ NEQ RHO FlowState "
             "from_primitives uniform_state",
    "surface": "FACE_NORMAL_AXIS FACE_NORMAL_SIGN face2full_add full2face "
               "full2face_multi",
    "viscous": "ViscousModel velocity_and_temperature viscous_fluxes",
}
__all__, __getattr__ = _lazy_exports(__name__, _EXPORTS)
