"""Fig. 5 — optimized (loop-fused/unrolled) derivative kernel counters.

Paper (Opteron 6378, N=5, Nel=1563, 1000 steps, PAPI):

    dudt: 4.89 s   1,158,978,395 inst   762,267,174 cycles
    dudr: 8.60 s   2,402,189,302 inst   1,355,354,404 cycles
    duds: 9.45 s   2,595,078,699 inst   1,468,462,190 cycles

Reproduction: the analytic counter model prints the same three rows
(instructions/cycles land within 2% by construction — the model's
coefficients are calibrated here and *reused* for every other N/Nel in
the sweeps); wall-clock timing of the real numpy ``fused`` kernels
supplies the pytest-benchmark measurement.  Checked claims: modelled
counters match, and the paper's runtime ordering dudt < dudr < duds
holds for the modelled times.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.kernels import derivative_matrix, kernel_cost
from repro.kernels import derivatives as dk
from repro.perfmodel import MachineModel

PAPER_N, PAPER_NEL, PAPER_STEPS = 5, 1563, 1000
PAPER = {  # direction -> (runtime s, instructions, cycles)
    "t": (4.89, 1_158_978_395, 762_267_174),
    "r": (8.60, 2_402_189_302, 1_355_354_404),
    "s": (9.45, 2_595_078_699, 1_468_462_190),
}

#: Wall-benchmark size (full 1563x1000 would take minutes in numpy).
BENCH_NEL = 256


@pytest.fixture(scope="module")
def modelled_rows():
    machine = MachineModel.preset("opteron6378")
    rows = {}
    for d in ("t", "r", "s"):
        rows[d] = kernel_cost(
            d, "fused", PAPER_N, PAPER_NEL, steps=PAPER_STEPS,
            machine=machine,
        )
    return rows


@pytest.mark.parametrize("direction", ["t", "r", "s"])
def test_fig05_fused_kernel_wall(benchmark, direction):
    """Wall time of the real fused kernel at the paper's N."""
    dmat = np.asarray(derivative_matrix(PAPER_N))
    u = np.random.default_rng(1).standard_normal(
        (BENCH_NEL, PAPER_N, PAPER_N, PAPER_N)
    )
    benchmark(dk.derivative, u, dmat, direction, "fused")


def test_fig05_modelled_counters(report, modelled_rows):
    rows = []
    for d in ("t", "r", "s"):
        c = modelled_rows[d]
        p_rt, p_inst, p_cyc = PAPER[d]
        rows.append((
            f"dud{d}", c.seconds, c.instructions, c.cycles,
            p_rt, p_inst, p_cyc,
        ))
    report(
        "Fig. 5 — optimized derivative kernel "
        f"(N={PAPER_N}, Nel={PAPER_NEL}, {PAPER_STEPS} steps, "
        "Opteron 6378 model)\n"
        + render_table(
            ["kernel", "model s", "model inst", "model cycles",
             "paper s", "paper inst", "paper cycles"],
            rows, floatfmt="{:.4g}",
        )
        + "\n(note: the paper's runtime column is inconsistent with its "
        "own cycle counts at 2.4 GHz; see EXPERIMENTS.md —\n"
        "instructions/cycles and all ratios are the reproduction target)"
    )

    # Claim 1: modelled counters within 2% of the PAPI measurements.
    for d in ("t", "r", "s"):
        c = modelled_rows[d]
        _, p_inst, p_cyc = PAPER[d]
        assert c.instructions == pytest.approx(p_inst, rel=0.02)
        assert c.cycles == pytest.approx(p_cyc, rel=0.02)

    # Claim 2: runtime ordering dudt < dudr < duds as in Fig. 5.
    assert (
        modelled_rows["t"].seconds
        < modelled_rows["r"].seconds
        < modelled_rows["s"].seconds
    )
