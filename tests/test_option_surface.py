"""The option surface, pinned name by name.

Every independently settable value doubles the configurations the parity
matrix and the benches must cover, so a new field or keyword has to show
up here — in the diff, next to its reason — before it can exist.
"""

import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
import repro.analysis
import repro.core
import repro.lb
import repro.solver
import repro.vscale
from repro.core import CMTBoneConfig, NekboneConfig
from repro.lb import LoadBalancer, RebalancePolicy
from repro.mpi import Comm, ProcsBackend, Runtime
from repro.net import SocketBackend
from repro.perfmodel import MachineModel
from repro.solver import CMTSolver, SolverConfig

OPTIONS_RULE = (
    "simplicity-review, Options: 'A new option is justified when two "
    "callers or workloads that exist at the parent commit, not counting "
    "tests and examples, need different values. With one value in use, "
    "ask for a constant.' Name the two callers in the PR, then update "
    "this table."
)

FIELDS = {
    SolverConfig: (
        "flux_scheme", "kernel_variant", "gs_method", "autotune_trials",
        "cfl", "dealias", "shock_filter", "viscosity", "boundaries",
        "overlap", "compute_imbalance", "lb",
    ),
    CMTBoneConfig: (
        "n", "local_shape", "proc_shape", "neq", "nsteps", "rk_stages",
        "kernel_variant", "gs_method", "autotune_trials", "work_mode",
        "pack_fields", "overlap", "exchange_fields", "monitor_every",
        "seed", "compute_imbalance", "lb_mode", "lb_threshold", "lb_every",
        "lb_min_interval",
    ),
    NekboneConfig: (
        "n", "local_shape", "proc_shape", "cg_iterations", "h1", "h2",
        "gs_method", "autotune_trials", "kernel_variant", "work_mode",
        "seed",
    ),
    RebalancePolicy: ("mode", "threshold", "every", "min_interval"),
    MachineModel: (
        "name", "cpu", "network", "io_latency", "io_bandwidth",
        "restart_latency",
    ),
}

PARAMETERS = {
    Runtime.__init__: (
        "nranks", "machine", "trace_messages", "fault_plan",
        "fault_base_step", "backend",
    ),
    ProcsBackend.__init__: ("ring_capacity",),
    SocketBackend.__init__: (
        "family", "hosts", "loopback", "external", "hb_timeout", "python",
        "bind_host", "advertise_host",
    ),
    CMTSolver.run: (
        "state", "nsteps", "dt", "monitor_every", "checkpoint_every",
        "checkpoint_dir", "step_offset", "time_offset", "checkpoint_job_id",
    ),
    LoadBalancer.propose: ("step",),
}

#: Public methods and properties, in definition order.  Each is called
#: by program code (``src/``, ``benchmarks/`` or ``examples/``); an
#: operation only tests call is not kept.
METHODS = {
    Comm: (
        "machine", "faults", "profile", "time", "compute", "shadow",
        "send", "isend", "recv", "irecv", "barrier", "allreduce",
        "allgather", "alltoall",
    ),
}


#: Package exports, sorted.  A name leaves with the code it named.
EXPORTS = {
    repro.solver: (
        "AttemptRecord", "BoundaryHandler", "BoundarySpec", "CMTSolver",
        "COMPONENT_NAMES", "CheckpointError", "CheckpointInfo", "ENERGY",
        "FACE_NORMAL_AXIS", "FACE_NORMAL_SIGN", "FaultRunReport",
        "FlowState", "IdealGas", "MX", "MY", "MZ", "NEQ", "PrimitiveState",
        "RHO", "RiemannSolution", "SCHEMES", "SOD_LEFT", "SOD_RIGHT",
        "ShockFilter", "SolverConfig", "StepStats", "ViscousModel",
        "central", "cfl_dt", "checkpoint_namespace", "divergence_flops",
        "euler_flux", "euler_fluxes", "exact_riemann", "exponential_sigma",
        "face2full_add", "face_bytes", "flux_divergence",
        "flux_divergence_multi", "flux_flops", "from_primitives",
        "full2face", "full2face_multi", "get_scheme", "gradient_physical",
        "lax_friedrichs", "load_checkpoint", "modal_to_nodal",
        "nodal_to_modal", "outflow_everywhere", "read_manifest",
        "run_with_recovery", "save_checkpoint", "smoothness_sensor",
        "sod_problem", "step_ssprk3", "uniform_state",
        "velocity_and_temperature", "viscous_dt_limit", "viscous_fluxes",
        "walls_everywhere", "wavespeed",
    ),
    repro.analysis: (
        "CallGraphProfiler", "Interval", "RegionStats", "TimelineRecorder",
        "call_graph", "fault_report", "flat_profile", "full_report",
        "hop_weighted_bytes", "injection_timeline", "lb_report",
        "merge_profiles", "merge_timelines", "message_size_report",
        "mpi_fraction_report", "neighbor_degree", "op_share", "render_gantt",
        "render_histogram", "render_table", "size_histogram",
        "split_phase_report", "summarize_compute", "summarize_fractions",
        "top_calls_report", "traffic_matrix", "traffic_report", "utilization",
        "wait_dominance",
    ),
    repro.core: (
        "CMTBone", "CMTBoneConfig", "CMTBoneResult", "Nekbone",
        "NekboneConfig", "NekboneResult", "cmtbone_profile_report",
        "comm_fraction", "dominant_region", "fig7_rows", "fig7_table",
        "launch_cmtbone", "nekbone_profile_report", "run_cmtbone",
        "run_nekbone",
    ),
    repro.lb: (
        "CostMonitor", "ElementAssignment", "LoadBalancer", "MODES",
        "MigrationStats", "OP_LB_MIGRATE", "OP_LB_REBUILD", "RankCost",
        "RebalanceEvent", "RebalancePolicy", "SITE_LB_MIGRATE",
        "SITE_LB_MONITOR", "SITE_LB_REBUILD", "capacities_from_costs",
        "chunk_bounds", "cost_imbalance", "element_ids", "gather_costs",
        "id_to_coords", "migrate_elements", "morton_keys",
        "predicted_element_seconds", "predicted_times", "refine_bounds",
        "sfc_order", "sfc_partition",
    ),
    repro.vscale: (
        "Agreement", "DEFAULT_TOLERANCES", "FaultExtrapolation", "GS_METHODS",
        "ModeledTimeline", "SampleExecution", "StepSchedule",
        "VirtualScaleEngine", "VscaleError", "build_schedule",
        "schedule_matches_handle",
    ),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_config_fields(cls):
    got = tuple(f.name for f in dataclasses.fields(cls))
    assert got == FIELDS[cls], f"{cls.__name__} fields changed. {OPTIONS_RULE}"


@pytest.mark.parametrize("cls", METHODS, ids=lambda c: c.__name__)
def test_public_methods(cls):
    got = tuple(name for name in vars(cls) if not name.startswith("_"))
    assert got == METHODS[cls], (
        f"{cls.__name__} public methods changed. {OPTIONS_RULE}"
    )


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda f: f.__qualname__)
def test_keyword_parameters(fn):
    got = tuple(inspect.signature(fn).parameters)[1:]  # drop self
    assert got == PARAMETERS[fn], (
        f"{fn.__qualname__} parameters changed. {OPTIONS_RULE}"
    )


@pytest.mark.parametrize("mod", EXPORTS, ids=lambda m: m.__name__)
def test_package_exports(mod):
    got = tuple(sorted(mod.__all__))
    assert got == EXPORTS[mod], (
        f"{mod.__name__}.__all__ changed. {OPTIONS_RULE}"
    )


IMPORTS_CLI = re.compile(
    r"^\s*(from\s+(\.+|repro\.)cli\b|import\s+repro\.cli\b"
    r"|from\s+(\.+|repro)\s+import\s+(.*\W)?cli\b)",
    re.MULTILINE,
)


def test_library_code_does_not_import_the_cli():
    """``repro.cli`` is the top of the import graph: nothing under
    ``src/repro/`` but itself may import it."""
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if path != root / "cli.py" and IMPORTS_CLI.search(path.read_text())
    ]
    assert not offenders, offenders
