#!/usr/bin/env python3
"""Sod shock tube: shock capturing validated against exact gas dynamics.

The canonical compressible benchmark, run through the full stack this
repository builds: the parallel DG solver (derivative kernels +
gather-scatter face exchange), non-periodic Dirichlet boundaries, the
Persson-Peraire shock filter, and the exact Riemann solver as the
reference.  Prints an ASCII density profile with the exact solution
overlaid and the star-region / shock-position errors.

Run:  python examples/sod_shock_tube.py
"""

import numpy as np

from repro.mpi import Runtime
from repro.solver import RHO, SOD_LEFT, SOD_RIGHT, exact_riemann, sod_problem

N = 8
NELX = 16
NRANKS = 2
T_END = 0.2
X0 = 0.5
SETUP = sod_problem(NRANKS, n=N, nelx=NELX, gs_method="pairwise")


def main(comm):
    solver, state = SETUP(comm)
    x = np.stack(
        [solver.mesh.element_nodes(ec)
         for ec in solver.partition.local_elements(comm.rank)],
        axis=1,
    )[0]

    t, steps = 0.0, 0
    while t < T_END:
        dt = min(solver.stable_dt(state), T_END - t)
        state = solver.step(state, dt)
        t += dt
        steps += 1
        assert state.is_physical()

    xs = x[:, :, 0, 0].ravel()
    rhos = state.u[RHO][:, :, 0, 0].ravel()
    return xs, rhos, steps


def ascii_profile(xs, rhos, exact_rho, height=14):
    """Overlay DG (#) on exact (.) density in a character grid."""
    cols = 72
    grid = [[" "] * cols for _ in range(height)]
    lo, hi = 0.05, 1.1

    def put(xv, rv, ch):
        c = min(int(xv * cols), cols - 1)
        r = height - 1 - min(
            int((rv - lo) / (hi - lo) * height), height - 1
        )
        if grid[r][c] == " " or ch == "#":
            grid[r][c] = ch

    for xv, rv in zip(np.linspace(0, 1, 400),
                      np.interp(np.linspace(0, 1, 400), xs, exact_rho)):
        put(xv, rv, ".")
    for xv, rv in zip(xs, rhos):
        put(xv, rv, "#")
    return "\n".join("|" + "".join(row) + "|" for row in grid)


if __name__ == "__main__":
    results = Runtime(nranks=NRANKS).run(main)
    xs = np.concatenate([r[0] for r in results])
    rhos = np.concatenate([r[1] for r in results])
    order = np.argsort(xs)
    xs, rhos = xs[order], rhos[order]

    sol = exact_riemann(SOD_LEFT, SOD_RIGHT)
    exact_rho, _u, _p = sol.profile(xs, t=T_END, x0=X0)

    print(f"Sod shock tube at t = {T_END} "
          f"({NELX} elements, N={N}, {results[0][2]} steps, "
          f"{NRANKS} ranks)\n")
    print("density: '#' = DG + shock filter, '.' = exact Riemann\n")
    print(ascii_profile(xs, rhos, exact_rho))
    print(f"\nL1 density error: {np.mean(np.abs(rhos - exact_rho)):.4f}")
    print(f"exact star region: p* = {sol.p_star:.5f}, "
          f"u* = {sol.u_star:.5f}, rho*L = {sol.rho_star_left:.5f}, "
          f"rho*R = {sol.rho_star_right:.5f}")
    x_shock = X0 + sol.shock_speed_right() * T_END
    print(f"exact shock position: x = {x_shock:.4f}")
