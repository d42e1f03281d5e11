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
from repro.core import CMTBoneConfig, NekboneConfig
from repro.lb import RebalancePolicy
from repro.mpi import ProcsBackend, Runtime
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
        "overlap", "source", "compute_imbalance", "lb",
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
        "nranks", "machine", "deadlock_detection", "trace_messages",
        "fault_plan", "fault_base_step", "backend",
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
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_config_fields(cls):
    got = tuple(f.name for f in dataclasses.fields(cls))
    assert got == FIELDS[cls], f"{cls.__name__} fields changed. {OPTIONS_RULE}"


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda f: f.__qualname__)
def test_keyword_parameters(fn):
    got = tuple(inspect.signature(fn).parameters)[1:]  # drop self
    assert got == PARAMETERS[fn], (
        f"{fn.__qualname__} parameters changed. {OPTIONS_RULE}"
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
