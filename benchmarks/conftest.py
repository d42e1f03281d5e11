"""Shared fixtures for the figure-reproduction benchmarks.

Every module regenerates one table or figure from the paper's
evaluation.  Tables print through the ``report`` fixture (bypassing
pytest capture so they land in ``bench_output.txt`` when the suite is
run with ``pytest benchmarks/ --ignore=benchmarks/e2e | tee ...``) and are
also written to ``benchmarks/results/<name>.txt`` for later diffing.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report(capsys, request):
    """Print a paper-style block to the real terminal and a results file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"{request.node.name}.txt"
    chunks = []

    def _emit(text: str) -> None:
        chunks.append(str(text))
        with capsys.disabled():
            print(f"\n{text}")

    yield _emit
    if chunks:
        out_path.write_text("\n".join(chunks) + "\n")


@pytest.fixture(scope="session")
def mpip_run():
    """One shared CMT-bone communication-profiling run (Figs. 8-10).

    64 ranks, proxy work mode, mild compute imbalance (the realism knob
    documented in DESIGN.md): the paper's production runs are not
    perfectly balanced, and the MPI_Wait-dominated profile of Fig. 9
    only appears when ranks drift apart.
    """
    from repro.core import CMTBoneConfig, run_cmtbone
    from repro.mpi import Runtime
    from repro.perfmodel import MachineModel

    # The paper profiles production-length runs, where the one-time
    # setup/auto-tune is amortized away; 30 steps is enough for the
    # steady-state exchange traffic to dominate the profile.
    config = CMTBoneConfig(
        n=10,
        local_shape=(3, 3, 2),
        proc_shape=(4, 4, 4),
        nsteps=30,
        work_mode="proxy",
        gs_method=None,            # run the full auto-tune, as the app does
        monitor_every=1,
        compute_imbalance=0.2,
    )
    runtime = Runtime(nranks=64, machine=MachineModel.preset("compton"))
    results = runtime.run(run_cmtbone, args=(config,))
    return runtime, results, config
