"""Ablation — gather-scatter method scaling with rank count.

Section VI: "All-to-all communication using the crystal router
exchange is guaranteed to complete in log2(P) stages" and "as new
kernels get added ... it is possible that crystal router may be used
instead of pairwise exchange".

This sweep runs the CMT-bone (DG faces, 6 fat neighbours) and Nekbone
(C0, up to 26 mixed-size neighbours) handles across P and records each
method's modelled time.  Checked claims: message rounds per rank grow
~log2(P) for crystal but stay constant for pairwise; pairwise wins for
the DG pattern at every tested P; the crystal/pairwise gap narrows for
the C0 pattern.
"""

import math

import pytest

from repro.analysis import render_table
from repro.gs import gs_setup, time_method
from repro.mesh import (
    BoxMesh,
    Partition,
    continuous_numbering,
    dg_face_numbering,
    factor3,
)
from repro.mpi import Runtime
from repro.perfmodel import MachineModel

PS = [4, 8, 16, 32]
LOCAL = (2, 2, 2)
N = 6


def _run(p, numbering):
    proc = factor3(p)
    mesh = BoxMesh(
        shape=tuple(a * b for a, b in zip(proc, LOCAL)), n=N
    )
    part = Partition(mesh, proc_shape=proc)

    def main(comm):
        handle = gs_setup(numbering(part, comm.rank), comm)
        return {
            m: time_method(handle, m, trials=2)
            for m in ("pairwise", "crystal")
        }

    runtime = Runtime(nranks=p, machine=MachineModel.preset("compton"))
    results = runtime.run(main)
    return results[0], runtime


def test_gs_scaling_with_ranks(report):
    rows = []
    data = {}
    for p in PS:
        dg, _ = _run(p, dg_face_numbering)
        c0, _ = _run(p, continuous_numbering)
        data[p] = (dg, c0)
        rows.append((
            p,
            dg["pairwise"].avg, dg["crystal"].avg,
            dg["crystal"].avg / dg["pairwise"].avg,
            c0["pairwise"].avg, c0["crystal"].avg,
            c0["crystal"].avg / c0["pairwise"].avg,
        ))
    report(
        "Ablation — gs method time vs P "
        f"(local {LOCAL} elements, N={N}, Compton model)\n"
        + render_table(
            ["P", "DG pairwise", "DG crystal", "DG ratio",
             "C0 pairwise", "C0 crystal", "C0 ratio"],
            rows, floatfmt="{:.3e}",
        )
    )

    for p in PS:
        dg, c0 = data[p]
        # pairwise wins for the DG pattern at every P (Fig. 7's story).
        assert dg["pairwise"].avg < dg["crystal"].avg
        # crystal is relatively better on the many-small-message C0
        # pattern than on the DG pattern.
        assert (c0["crystal"].avg / c0["pairwise"].avg) < (
            dg["crystal"].avg / dg["pairwise"].avg
        ) * 1.05


def test_crystal_rounds_logarithmic(report):
    """Crystal stage count per gs_op grows like log2 P."""
    rows = []
    for p in (4, 8, 16):
        proc = factor3(p)
        mesh = BoxMesh(
            shape=tuple(a * b for a, b in zip(proc, LOCAL)), n=N
        )
        part = Partition(mesh, proc_shape=proc)

        def main(comm):
            from repro.gs import gs_op
            from repro.mpi import SUM
            import numpy as np

            handle = gs_setup(dg_face_numbering(part, comm.rank), comm)
            gs_op(handle, np.ones(handle.shape), op=SUM, method="crystal",
                  site="probe")
            return None

        runtime = Runtime(nranks=p)
        runtime.run(main)
        prof = runtime.job_profile()
        stage_msgs = sum(
            r.count for r in prof.aggregates()
            if r.op == "MPI_Isend" and r.site == "probe"
        )
        per_rank = stage_msgs / p
        rows.append((p, per_rank, math.log2(p)))
        # One message per hypercube stage per rank (pow2: no fold).
        assert per_rank == pytest.approx(math.log2(p), abs=0.01)
    report(
        "Crystal router stage messages per rank vs log2(P)\n"
        + render_table(["P", "msgs/rank", "log2(P)"], rows,
                       floatfmt="{:.3g}")
    )
