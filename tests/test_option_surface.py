"""The option surface, pinned name by name.

Every independently settable value doubles the configurations the parity
matrix and the benches must cover, so a new field or keyword has to show
up here — in the diff, next to its reason — before it can exist.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
import repro.analysis
import repro.core
import repro.gs
import repro.kernels
import repro.lb
import repro.mesh
import repro.mpi
import repro.perfmodel
import repro.solver
import repro.vscale
from repro.analysis import (
    flat_profile,
    message_size_report,
    mpi_fraction_report,
    render_histogram,
    render_table,
)
from repro.core import CMTBoneConfig, NekboneConfig
from repro.faults import FaultInjector, FaultPlan
from repro.gs import time_method
from repro.kernels import dealias_flops, roofline_seconds, roundtrip
from repro.kir import program_mem_bytes
from repro.lb import (
    LoadBalancer,
    RebalancePolicy,
    refine_bounds,
    sfc_partition,
)
from repro.mpi import Comm, Runtime
from repro.net import SocketBackend
from repro.net.hostfile import ssh_command
from repro.perfmodel import MachineModel
from repro.solver import (
    CMTSolver,
    ShockFilter,
    SolverConfig,
    ViscousModel,
    exact_riemann,
    smoothness_sensor,
    uniform_state,
)
from repro.vscale import StepSchedule, VirtualScaleEngine

OPTIONS_RULE = (
    "simplicity-review, Options: 'A new option is justified when two "
    "callers or workloads that exist at the parent commit, not counting "
    "tests and examples, need different values. With one value in use, "
    "ask for a constant.' Name the two callers in the PR, then update "
    "this table."
)

FIELDS = {
    SolverConfig: (
        "kernel_variant", "gs_method", "cfl", "dealias", "shock_filter",
        "viscosity", "boundaries", "overlap", "compute_imbalance", "lb",
    ),
    CMTBoneConfig: (
        "n", "local_shape", "proc_shape", "neq", "nsteps", "kernel_variant",
        "gs_method", "work_mode", "pack_fields", "overlap",
        "exchange_fields", "monitor_every", "seed", "compute_imbalance",
        "lb_mode", "lb_threshold", "lb_every", "lb_min_interval",
    ),
    NekboneConfig: (
        "n", "local_shape", "proc_shape", "cg_iterations", "gs_method",
        "work_mode",
    ),
    RebalancePolicy: ("mode", "threshold", "every", "min_interval"),
    MachineModel: ("name", "cpu", "network", "io_latency", "restart_latency"),
    ShockFilter: ("n", "threshold", "ramp"),
    ViscousModel: ("mu",),
    FaultPlan: ("crashes", "drops", "degrades", "seed"),
}

PARAMETERS = {
    Runtime.__init__: (
        "nranks", "machine", "trace_messages", "fault_plan",
        "fault_base_step", "backend",
    ),
    SocketBackend.__init__: (
        "family", "hosts", "loopback", "external", "hb_timeout", "python",
        "bind_host", "advertise_host",
    ),
    CMTSolver.run: (
        "state", "nsteps", "dt", "monitor_every", "checkpoint_every",
        "checkpoint_dir", "step_offset", "time_offset", "checkpoint_job_id",
    ),
    LoadBalancer.propose: ("step",),
    mpi_fraction_report: ("profile",),
    render_table: ("headers", "rows", "floatfmt"),
    sfc_partition: ("mesh", "nranks", "weights", "capacities"),
    refine_bounds: ("cumw", "bounds", "unit_costs"),
    exact_riemann: ("left", "right"),
    smoothness_sensor: ("u",),
    flat_profile: ("stats",),
    message_size_report: ("profile", "n"),
    render_histogram: ("labels", "values", "unit"),
    FaultInjector.check_time_crash: ("comm",),
    FaultPlan.parse: ("spec", "seed"),
    FaultPlan.random: ("seed", "nranks", "nsteps"),
    time_method: ("handle", "method", "trials"),
    roofline_seconds: ("n", "nel", "machine", "variant"),
    roundtrip: ("u", "n", "out", "work"),
    dealias_flops: ("n", "nel"),
    program_mem_bytes: ("prog", "nel"),
    Comm.compute: ("flops", "mem_bytes", "seconds"),
    ssh_command: ("host", "address", "token", "rank", "python"),
    uniform_state: ("nel", "n", "rho", "vel", "p"),
    VirtualScaleEngine.model: ("method", "nranks"),
    StepSchedule.pairwise_bytes: (),
}

#: Public methods and properties, in definition order.  Each is called
#: by program code (``src/``, ``benchmarks/`` or ``examples/``) or kept
#: in ``KEPT_UNCALLED`` with its reason; an operation only tests call is
#: not kept.
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
        "FACE_NORMAL_AXIS", "FACE_NORMAL_SIGN", "FaultRunReport", "FlowState",
        "IdealGas", "MX", "MY", "MZ", "NEQ", "PrimitiveState", "RHO",
        "RiemannSolution", "SOD_LEFT", "SOD_RIGHT", "ShockFilter",
        "SolverConfig", "StepStats", "ViscousModel", "cfl_dt",
        "checkpoint_namespace", "divergence_flops", "euler_flux",
        "euler_fluxes", "exact_riemann", "exponential_sigma", "face2full_add",
        "flux_divergence", "flux_divergence_multi", "flux_flops",
        "from_primitives", "full2face", "full2face_multi",
        "gradient_physical", "lax_friedrichs", "load_checkpoint",
        "modal_to_nodal", "nodal_to_modal", "read_manifest",
        "run_with_recovery", "save_checkpoint", "smoothness_sensor",
        "sod_problem", "step_ssprk3", "uniform_state",
        "velocity_and_temperature", "viscous_fluxes", "wavespeed",
    ),
    repro.analysis: (
        "CallGraphProfiler", "Interval", "RegionStats", "call_graph",
        "fault_report", "flat_profile", "full_report", "hop_weighted_bytes",
        "lb_report", "merge_profiles", "merge_timelines",
        "message_size_report", "mpi_fraction_report", "op_share",
        "render_gantt", "render_histogram", "render_table",
        "summarize_compute", "summarize_fractions", "top_calls_report",
        "wait_dominance",
    ),
    repro.core: (
        "CMTBone", "CMTBoneConfig", "CMTBoneResult", "Nekbone",
        "NekboneConfig", "NekboneResult", "cmtbone_profile_report",
        "dominant_region", "fig7_rows", "fig7_table", "launch_cmtbone",
        "nekbone_profile_report", "run_cmtbone", "run_nekbone",
    ),
    repro.lb: (
        "CostMonitor", "ElementAssignment", "LoadBalancer", "MODES",
        "MigrationStats", "OP_LB_MIGRATE", "OP_LB_REBUILD", "RankCost",
        "RebalanceEvent", "RebalancePolicy", "SITE_LB_MIGRATE",
        "SITE_LB_MONITOR", "SITE_LB_REBUILD", "capacities_from_costs",
        "chunk_bounds", "cost_imbalance", "element_ids", "gather_costs",
        "id_to_coords", "migrate_elements", "morton_keys", "refine_bounds",
        "sfc_order", "sfc_partition",
    ),
    repro.vscale: (
        "Agreement", "DEFAULT_TOLERANCES", "FaultExtrapolation", "GS_METHODS",
        "ModeledTimeline", "SampleExecution", "StepSchedule",
        "VirtualScaleEngine", "VscaleError", "build_schedule",
        "schedule_matches_handle",
    ),
    repro.mesh: (
        "BoxMesh", "FACE_AXIS_SIDE", "NFACES", "Partition",
        "continuous_numbering", "dg_face_numbering", "face_counts",
        "factor3", "total_faces",
    ),
    repro.perfmodel: (
        "CpuModel", "FatTreeTopology", "FlatTopology", "MachineModel",
        "NetworkModel", "Topology", "TorusTopology", "load_factor",
    ),
    repro.gs: (
        "GSExchange", "GSHandle", "METHODS", "METHOD_LABELS", "MethodTiming",
        "choose_method", "exchange_allreduce", "exchange_crystal",
        "exchange_pairwise", "gs_op", "gs_op_begin", "gs_op_finish",
        "gs_op_many", "gs_setup", "route", "time_method", "timing_table",
    ),
    repro.kernels: (
        "BLOCK_BYTES", "CYCLES_PER_INST", "DIRECTIONS", "INST_PER_FLOP",
        "KernelCost", "Workspace", "as_elements", "barycentric_weights",
        "dealias_flops", "dealias_order", "derivative", "derivative_matrix",
        "dudr", "duds", "dudt", "field_blocks", "flops", "gll_points",
        "gll_weights", "grad", "grad_workspace", "interpolation_matrix",
        "ir_counts", "kernel_cost", "lagrange_basis_at",
        "legendre_and_derivative", "mem_bytes", "roofline_seconds",
        "roundtrip", "speedup", "to_coarse", "to_fine", "working_set_bytes",
    ),
    repro.mpi: (
        "ANY_SOURCE", "ANY_TAG", "AbortError", "Backend", "CallRecord",
        "ClockStats", "Comm", "CommunicatorError", "DeadlockError",
        "JobProfile", "MAX", "MIN", "MPIError", "MessageTrace",
        "OverlapInterval", "PROD", "RankCrashError",
        "RankError", "RankProfile", "RecvRequest", "ReduceOp", "Request",
        "Runtime", "SUM", "SendRequest", "SiteAggregate",
        "Status", "ThreadsBackend", "TraceEvent", "VirtualClock",
        "available_backends", "payload_nbytes", "resolve_backend", "waitall",
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
    got = tuple(p for p in inspect.signature(fn).parameters if p != "self")
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


#: Public ``def``s kept although no line of ``src/``, ``benchmarks/`` or
#: ``examples/`` names them, keyed ``module:qualname``.
KEPT_UNCALLED = {
    # Test seams: reset the kernel-autotune caches between tests.
    "repro.kir.autotune:CacheStats.reset",
    "repro.kir.library:reset_default_library",
    # Test oracle the vscale tests hold the modeled schedule to.
    "repro.vscale.schedule:schedule_matches_handle",
    # The what-if API of docs/virtual-scale.md.
    "repro.vscale.engine:VirtualScaleEngine.sweep",
    # The generic nonblocking path (MPI_Isend/Irecv/Waitall) that
    # tests/test_message_path.py and tests/crystal_oracle.py hold
    # PairwisePlan and the crystal router to.
    "repro.mpi.communicator:Comm.isend",
    "repro.mpi.communicator:Comm.irecv",
    "repro.mpi.request:waitall",
    # Job cancellation, documented in docs/service.md.
    "repro.service.service:Service.cancel",
    # repro.bench is restructured whole with the benchmark harness.
    "repro.bench.scenarios:all_scenarios",
    "repro.bench.scenarios:get_scenario",
}

PROGRAM_TREES = ("src", "benchmarks", "examples")


def _public_defs():
    """``(path, key, name, first line, last line)`` of each public
    function and method defined at module or class level in
    ``src/repro``, keyed ``module:qualname``."""
    src = pathlib.Path(repro.__file__).parent
    for path in sorted(src.rglob("*.py")):
        module = ".".join(
            path.relative_to(src.parent).with_suffix("").parts
        ).removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            scopes = [(node, "")]
            if isinstance(node, ast.ClassDef):
                scopes = [(sub, node.name + ".") for sub in node.body]
            for sub, prefix in scopes:
                if isinstance(sub, ast.FunctionDef) and (
                    not sub.name.startswith("_")
                ):
                    start = min(
                        [sub.lineno] + [d.lineno for d in sub.decorator_list]
                    )
                    yield (
                        path, f"{module}:{prefix}{sub.name}", sub.name,
                        start, sub.end_lineno,
                    )


def _decorations(tree):
    """``id`` of every node inside a decorator expression."""
    return {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for deco in node.decorator_list
        for sub in ast.walk(deco)
    }


def _named(path):
    """``(name, line, is_attribute)`` of every identifier a file uses:
    names, attributes, identifier-like strings and ``from`` imports
    outside package ``__init__`` files.  ``__all__`` lists and
    re-exports do not count: they name a function without calling it;
    nor does a decorator (``pytest.mark`` is not a ``mark`` method)."""
    tree = ast.parse(path.read_text())
    skipped = _decorations(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno, False
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            for alias in node.names:
                yield alias.name, node.lineno, False


def _program_files():
    root = pathlib.Path(repro.__file__).parents[2]
    for tree in PROGRAM_TREES:
        yield from sorted((root / tree).rglob("*.py"))


def test_every_public_def_has_a_program_caller():
    """A public function or method that only tests name is deleted with
    its tests, not kept: the mini-app keeps what an entry point runs.
    A method counts as called only through an attribute (``x.name``):
    a local variable of the same name does not call it."""
    uses = {}
    for path in _program_files():
        for name, line, attr in _named(path):
            uses.setdefault(name, []).append((path, line, attr))

    def called(path, key, name, start, end):
        method = "." in key.partition(":")[2]
        return any(
            (attr or not method) and (p != path or not start <= line <= end)
            for p, line, attr in uses.get(name, ())
        )

    unnamed = [
        d[1] for d in _public_defs()
        if d[1] not in KEPT_UNCALLED and not called(*d)
    ]
    assert not unnamed, (
        f"public defs no program code names: {unnamed}; delete them "
        "with their tests, or add them to KEPT_UNCALLED with a reason"
    )


def _own_methods(cls):
    """``(path, first line, last line)`` of each instance method of
    ``cls``: a keyword there copies a value the instance already holds.
    Class and static methods are constructors program code calls."""
    path = pathlib.Path(inspect.getsourcefile(cls))
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not any(
                    isinstance(d, ast.Name)
                    and d.id in ("classmethod", "staticmethod")
                    for d in sub.decorator_list
                ):
                    yield path, sub.lineno, sub.end_lineno


def _callee(call):
    """The name a call is made through: ``f`` of ``f(...)``/``x.f(...)``
    and, for ``C.m(...)``, the class name ``C``."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id[:1].isupper():
            return func.value.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def test_config_fields_have_a_program_setter():
    """Every pinned field is passed by keyword somewhere in program code,
    outside its own class's instance methods.  A keyword passed straight
    to another pinned class (``CMTBoneConfig(seed=...)``) sets that
    class's field, not this one's; one passed to a helper or a copy
    (``cfg.with_(...)``, ``replace``) may set either."""
    pinned = {cls.__name__ for cls in FIELDS}
    calls = []
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = _callee(node)
                calls.extend(
                    (kw.arg, callee, path, node.lineno)
                    for kw in node.keywords if kw.arg
                )
    unset = []
    for cls in FIELDS:
        own = list(_own_methods(cls))
        mine = {c.__name__ for c in cls.__mro__}
        for name in FIELDS[cls]:
            if not any(
                arg == name
                and (callee in mine or callee not in pinned)
                and not any(p == path and a <= line <= b for p, a, b in own)
                for arg, callee, path, line in calls
            ):
                unset.append(f"{cls.__name__}.{name}")
    assert not unset, (
        f"config fields no program code sets: {unset}; make each a "
        f"constant. {OPTIONS_RULE}"
    )


def test_kept_uncalled_names_still_exist():
    """The allowlist shrinks with the code it names."""
    defined = {key for _, key, *_ in _public_defs()}
    assert KEPT_UNCALLED <= defined, sorted(KEPT_UNCALLED - defined)
