"""Count gates: what one step dispatches, and what a job imports.

Wall-clock gates flake with the host (ROADMAP item 4); a count of
profiled calls on one rank repeats exactly, so a per-call regression in
a step pipeline fails here on every run or on none.  The ceilings are
the measured counts plus ~10 % for interpreter and numpy versions.
"""

import cProfile
import json
import pstats
import subprocess
import sys

import numpy as np
import pytest

from repro.core import CMTBone, CMTBoneConfig
from repro.gs import gs_op, gs_setup
from repro.mesh import dg_face_numbering
from repro.mpi import SUM, Runtime
from repro.solver import sod_problem

#: One warm ``CMTSolver.step`` (ssprk3 + shock filter, Dirichlet ends),
#: one rank, N=5, 8 elements.  2,183 before the stage became one pass
#: (five sensors and fifteen modal transforms per step, 120 face planes,
#: full-size ghost increments per stage); 1,075 with three ``gs_op``
#: calls per stage (state SUM, flux SUM, wavespeed MAX); 922 measured
#: now (one mixed-op call over the stage's trace stack).
SOLVER_STEP_CEILING = 1015
#: One warm ``CMTBone.timestep`` (3 stages x 5 fields), one rank, N=5,
#: 8 elements: 725 with the workspace rebuilding its key on every hit,
#: 661 with ``@contextmanager`` region brackets (8 per stage), 536
#: measured now.
CMTBONE_STEP_CEILING = 590
#: One warm 5-field ``gs_op`` (pairwise) on rank 0 of 8 thread ranks,
#: N=5, 2x2x2 elements per rank, 3 neighbours: ~600 when every field
#: posted, took, sent and looked up its profile rows on its own; 306
#: with condense, fold and scatter; 301 with the pair plan; 244
#: measured now (each neighbour's message costs resolved once per call,
#: the clock and channel counter stepped inline, faces gathered whole).
GS_OP_STACK_CEILING = 268
#: One warm one-field ``gs_op`` on one rank, N=16, 4x4x4 elements (the
#: DG face numbering): 38 with condense and scatter; 39 with the pair
#: plan's slot buffer folded in three chunks; 37 measured now (one
#: ufunc over the entries, then one gather of the first copies'
#: results, with no chunk loop).
GS_OP_ONE_RANK_CEILING = 41


def profiled_calls(warm_up, step):
    """Calls cProfile sees in ``step()`` on the one rank of a job."""

    def main(comm):
        run = step(comm)
        for _ in range(warm_up):
            run()
        profile = cProfile.Profile()
        profile.enable()
        run()
        profile.disable()
        # (``disable`` itself is the one call that is not the step's.)
        return pstats.Stats(profile).total_calls - 1

    return Runtime(nranks=1).run(main)[0]


def solver_step(comm):
    solver, state = sod_problem(1, n=5, nelx=8, gs_method="pairwise")(comm)
    return lambda: solver.step(state, 2e-4)


def cmtbone_step(comm):
    return CMTBone(
        comm, CMTBoneConfig(n=5, local_shape=(2, 2, 2), nsteps=1)
    ).timestep


def gs_op_one_rank(comm):
    part = CMTBoneConfig(n=16, local_shape=(4, 4, 4)).build_partition(1)
    handle = gs_setup(dg_face_numbering(part, comm.rank), comm)
    u = np.ones(handle.shape)
    return lambda: gs_op(handle, u, op=SUM, out=u)


def gs_op_stack_calls():
    """Calls cProfile sees in rank 0's warm 5-field ``gs_op``.

    Two things depend on thread scheduling and are left out: the
    blocking wait (profiling is suspended inside ``Comm._wait_for``; its
    wrapper's own frames are not counted) and the ``release`` with which
    a send wakes a neighbour that is already blocked.
    """

    def main(comm):
        app = CMTBone(comm, CMTBoneConfig(
            n=5, local_shape=(2, 2, 2), nsteps=1, gs_method="pairwise"
        ))
        faces = app._faces

        def run():
            gs_op(app.handle, faces, op=SUM, site="pin", out=faces)

        for _ in range(3):
            run()
        comm.barrier()
        if comm.rank:
            return run()
        profile = cProfile.Profile()
        wait_for = comm._wait_for

        def unprofiled_wait(*args, **kwargs):
            profile.disable()
            try:
                return wait_for(*args, **kwargs)
            finally:
                profile.enable()

        comm._wait_for = unprofiled_wait
        profile.enable()
        run()
        profile.disable()
        del comm._wait_for
        skip = (
            unprofiled_wait.__name__,
            "<method 'disable' of '_lsprof.Profiler' objects>",
            "<method 'release' of '_thread.lock' objects>",
        )
        return sum(
            calls for (_, _, name), (_, calls, *_) in
            pstats.Stats(profile).stats.items() if name not in skip
        )

    return Runtime(nranks=8).run(main)[0]


def test_solver_step_stays_under_its_call_ceiling():
    calls = profiled_calls(3, solver_step)
    assert calls == profiled_calls(3, solver_step), "the count must repeat"
    assert calls <= SOLVER_STEP_CEILING, calls


def test_cmtbone_timestep_stays_under_its_call_ceiling():
    calls = profiled_calls(3, cmtbone_step)
    assert calls == profiled_calls(3, cmtbone_step), "the count must repeat"
    assert calls <= CMTBONE_STEP_CEILING, calls


def test_jobs_do_not_import_numpy_ma():
    """``np.unique``/``np.union1d`` import ``numpy.ma`` on first use (~13 ms
    in every CLI child and service worker); the job path must not."""
    code = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['cmtbone', '--ranks', '8', '-N', '5', '--local',"
        " '2,2,2', '--steps', '2']) == 0\n"
        "    assert main(['cmtbone', '--ranks', '2', '-N', '5', '--local',"
        " '2,2,2', '--steps', '2', '--gs-method', 'allreduce']) == 0\n"
        "    assert main(['sod', '--ranks', '2', '--elements', '8',"
        " '--steps', '6', '--imbalance', '0.4', '--lb', 'every',"
        " '--lb-every', '2']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _run_code(code, *args):
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


#: Packages a ``cmtbone`` job on thread ranks with LB off runs nothing of.
NOT_RUN_BY_CMTBONE = (
    "repro.bench", "repro.lb", "repro.service", "repro.net",
    "repro.vscale", "repro.faults", "repro.validation",
)


def test_cmtbone_job_imports_only_what_it_runs():
    """Of the solver, the mini-app runs only the face traces; the parser
    needs only the bench group names; LB off needs no load balancer."""
    code = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['cmtbone', '--ranks', '8', '-N', '5', '--local',"
        " '2,2,2', '--steps', '2']) == 0\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = _run_code(code).split()
    assert "repro.core.cmtbone" in loaded
    assert [m for m in loaded if any(
        m == pkg or m.startswith(pkg + ".") for pkg in NOT_RUN_BY_CMTBONE
    )] == []
    solver = [m for m in loaded if m.startswith("repro.solver")]
    assert solver == ["repro.solver", "repro.solver.surface"]


#: Runs ``repro.cli.main`` on its arguments after the first, with a
#: meta-path hook that appends every import made in a process other than
#: this one to the file its first argument names.
_AFTER_FORK_HOOK = """
import contextlib, io, os, sys
log, argv = sys.argv[1], sys.argv[2:]
parent = os.getpid()

class AfterFork:
    def find_spec(self, name, path=None, target=None):
        if os.getpid() != parent:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {name}\\n")
        return None

sys.meta_path.insert(0, AfterFork())
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv) == 0
"""

_E2E_XCHG = ["cmtbone", "--ranks", "2", "-N", "5", "--local", "2,2,2",
             "--steps", "2"]


@pytest.mark.parametrize("backend", ["procs", "sockets", "campaign"])
def test_forked_ranks_and_workers_import_nothing(backend, tmp_path):
    """Ranks and pool workers are forked with everything their job runs
    already imported (numpy.random for the auto-tune's and the fields'
    random draws, the sod path of the service) and import nothing."""
    if backend == "campaign":
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"kind": "cmtbone", "name": "c", "nranks": 2,
             "params": {"n": 5, "nel": 8, "nsteps": 2}},
            {"kind": "sod", "name": "s", "nranks": 2,
             "params": {"n": 5, "nelx": 8, "nsteps": 2}},
        ]))
        argv = ["campaign", "--jobs", str(jobs), "--workers", "2"]
    else:
        argv = [*_E2E_XCHG, "--backend", backend]
    log = tmp_path / "after-fork.log"
    _run_code(_AFTER_FORK_HOOK, str(log), *argv)
    assert not log.exists(), log.read_text()


def test_main_freezes_the_import_heap_once():
    code = (
        "import contextlib, gc, io\n"
        "calls = []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: (calls.append(1), freeze())\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['machines']) == 0\n"
        "    assert main(['machines']) == 0\n"
        "print(len(calls), gc.get_freeze_count() > 0)\n"
    )
    assert _run_code(code).split() == ["1", "True"]


def _sod_argv(tmp_path, backend):
    """The benchmark's Sod campaign shape (LB migration, checkpoints, one
    crash, a restart, the verification run), shortened."""
    return [
        "sod", "--ranks", "4", "--elements", "32", "--steps", "12",
        "--imbalance", "0.4", "--lb", "auto", "--lb-threshold", "1.05",
        "--checkpoint-every", "5", "--checkpoint-dir",
        str(tmp_path / "ckpt"), "--fault-spec", "crash:rank=2,step=7",
        "--fault-seed", "1", "--verify", "--backend", backend,
    ]


@pytest.mark.parametrize("backend", ["threads", "procs", "sockets"])
def test_sod_job_never_imports_numpy_random(backend, tmp_path):
    """Sod draws no random numbers: neither the job's process nor its
    ranks (which import nothing after their fork) load numpy.random."""
    log = tmp_path / "after-fork.log"
    out = _run_code(
        _AFTER_FORK_HOOK + "print('numpy.random' in sys.modules)\n",
        str(log), *_sod_argv(tmp_path, backend),
    )
    assert out.split() == ["False"]
    assert not log.exists(), log.read_text()


#: Dataclass types defined in the ``repro`` modules a Sod job imports:
#: 27 measured (54 before immutable records became NamedTuples), +10%.
SOD_DATACLASS_CEILING = 29


def test_sod_job_builds_few_dataclasses(tmp_path):
    """Every job builds the classes it imports, and a dataclass costs
    ~1 ms to build: a record is a NamedTuple unless something mutates
    or introspects it (repro.records)."""
    code = (
        "import contextlib, dataclasses, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(sum(\n"
        "    1 for name, mod in list(sys.modules.items())\n"
        "    if name.split('.')[0] == 'repro' and mod is not None\n"
        "    for value in vars(mod).values()\n"
        "    if isinstance(value, type) and value.__module__ == name\n"
        "    and dataclasses.is_dataclass(value)\n"
        "))\n"
    )
    count = int(_run_code(code, *_sod_argv(tmp_path, "threads")))
    assert count <= SOD_DATACLASS_CEILING, count


def test_spool_client_imports_no_job_code(tmp_path):
    """``submit`` writes one job file: it loads none of the code the
    pool's workers run (the solver, the mini-app, the pool itself)."""
    code = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['submit', '--spool', sys.argv[1],"
        " '--kind', 'sod']) == 0\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    loaded = _run_code(code, str(tmp_path / "spool")).split()
    assert "repro.service.jobs" in loaded
    assert [m for m in loaded if m.startswith((
        "repro.solver", "repro.core", "repro.service.pool",
        "repro.service.execute",
    ))] == []


def _gantt_chart(backend):
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "cmtbone", "--ranks", "2",
         "-N", "5", "--local", "2,2,2", "--steps", "3", "--gantt",
         "--backend", backend],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    head, mark, chart = done.stdout.partition("=== execution timeline ===")
    assert mark and chart.strip(), done.stdout
    return chart


def test_gantt_chart_is_the_same_on_threads_and_procs():
    """Ranks ship their timeline only when --gantt asks for it; the
    chart drawn from what procs ranks ship equals the threads one."""
    assert _gantt_chart("procs") == _gantt_chart("threads")


def test_stacked_gs_op_stays_under_its_call_ceiling():
    calls = gs_op_stack_calls()
    assert calls == gs_op_stack_calls(), "the count must repeat"
    assert calls <= GS_OP_STACK_CEILING, calls


def test_one_rank_gs_op_stays_under_its_call_ceiling():
    calls = profiled_calls(3, gs_op_one_rank)
    assert calls == profiled_calls(3, gs_op_one_rank), "the count must repeat"
    assert calls <= GS_OP_ONE_RANK_CEILING, calls
