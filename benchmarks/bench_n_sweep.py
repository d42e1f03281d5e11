"""Ablation — derivative-kernel cost across polynomial orders.

Section V: "The elements and derivative operator matrices are fairly
small, with N ranging between 5 and 25 ... The derivative calculation
is an O(N^4) operation."

This sweep measures the real fused kernel across the paper's full N
range and checks the O(N^4) flop scaling plus the modelled L1
spill-over for the strided directions (the paper's duds cache-miss
explanation becomes visible as an efficiency knee as N grows on the
48 KB-L1 Opteron model).
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.kernels import (
    derivative_matrix,
    kernel_cost,
    working_set_bytes,
)
from repro.kernels import derivatives as dk
from repro.perfmodel import MachineModel

NS = [5, 10, 15, 20, 25]
POINTS_BUDGET = 200_000  # keep per-N wall work comparable


@pytest.mark.parametrize("n", NS)
def test_n_sweep_fused_wall(benchmark, n):
    nel = max(1, POINTS_BUDGET // n**3)
    dmat = np.asarray(derivative_matrix(n))
    u = np.random.default_rng(n).standard_normal((nel, n, n, n))
    benchmark(dk.dudr, u, dmat)


def test_n_sweep_model_table(report):
    machine = MachineModel.preset("opteron6378")
    rows = []
    for n in NS:
        costs = {
            d: kernel_cost(d, "fused", n, 100, machine=machine)
            for d in "rst"
        }
        total = sum(c.seconds for c in costs.values())
        rows.append((
            n,
            total,
            total / n**4 * 1e9,
            working_set_bytes(n),
            "yes" if working_set_bytes(n) > machine.cpu.l1_dcache else "no",
        ))
    report(
        "Ablation — modelled derivative cost vs N (Nel=100, all three "
        "directions, Opteron 6378)\n"
        + render_table(
            ["N", "time (s)", "time/N^4 (ns)", "working set (B)",
             "spills 48KB L1"],
            rows, floatfmt="{:.4g}",
        )
    )

    # O(N^4): normalized cost per N^4 varies by < the L1-penalty factor.
    normalized = [r[2] for r in rows]
    assert max(normalized) / min(normalized) < 1.3
    # The L1 spill must appear inside the paper's N range (5..25).
    spills = [r[4] for r in rows]
    assert "no" in spills and "yes" in spills


def test_n_sweep_wall_scaling(report):
    """Measured flop rate is roughly N-independent for fused kernels."""
    import time

    rows = []
    for n in NS:
        nel = max(1, POINTS_BUDGET // n**3)
        dmat = np.asarray(derivative_matrix(n))
        u = np.random.default_rng(n).standard_normal((nel, n, n, n))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            dk.dudr(u, dmat)
            best = min(best, time.perf_counter() - t0)
        gflops = dk.flops(n, nel) / best / 1e9
        rows.append((n, nel, best * 1e3, gflops))
    report(
        "Measured fused dudr across N (constant point budget)\n"
        + render_table(
            ["N", "Nel", "time (ms)", "GF/s"], rows, floatfmt="{:.3g}"
        )
    )
    rates = [r[3] for r in rows]
    # Throughput grows with N (bigger GEMMs amortize call overhead);
    # it must never collapse across the sweep.
    assert max(rates) / min(rates) < 50
