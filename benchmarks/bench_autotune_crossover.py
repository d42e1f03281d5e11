"""Ablation — the auto-tuner's decision flips with the problem setup.

Section VI: "While this routine [crystal router] has not been used in
any of our CMT-bone test runs with different system and problem sizes,
as new kernels get added to the mini-app and the problem setup
changes, it is possible that crystal router may be used instead of
pairwise exchange.  This observation is of importance to both
performance optimization and performance modeling efforts."

This ablation makes the crossover explicit: for the C0 (Nekbone-style)
numbering, shrink the per-rank problem until the 26 neighbour messages
are tiny and per-message overhead dominates — the log2(P)-message
crystal router then beats pairwise, and the auto-tuner switches.

Checked claims: the winner is setup-dependent (both methods win
somewhere in the sweep); crystal wins at the small end, pairwise at
the large end; the auto-tuner's pick always matches the measured
minimum.
"""


from repro.analysis import render_table
from repro.gs import choose_method, gs_setup
from repro.mesh import BoxMesh, Partition, continuous_numbering
from repro.mpi import Runtime
from repro.perfmodel import MachineModel

P = 27
PROC = (3, 3, 3)
#: (N, local elements) from "tiny messages" to "fat messages".
SWEEP = [(3, (1, 1, 1)), (5, (1, 1, 1)), (8, (2, 2, 2)), (10, (3, 3, 3))]


def _tune(n, local):
    mesh = BoxMesh(
        shape=tuple(a * b for a, b in zip(PROC, local)), n=n
    )
    part = Partition(mesh, proc_shape=PROC)

    def main(comm):
        handle = gs_setup(continuous_numbering(part, comm.rank), comm)
        timings = choose_method(
            handle, methods=["pairwise", "crystal"], trials=2
        )
        return handle.method, {m: t.avg for m, t in timings.items()}

    runtime = Runtime(nranks=P, machine=MachineModel.preset("compton"))
    return runtime.run(main)[0]


def test_autotune_crossover(report):
    rows = []
    winners = []
    for n, local in SWEEP:
        winner, avgs = _tune(n, local)
        winners.append(winner)
        rows.append((
            f"N={n}, local={local}",
            avgs["pairwise"], avgs["crystal"],
            avgs["crystal"] / avgs["pairwise"],
            winner,
        ))
        # The tuner's pick matches the measured minimum.
        assert winner == min(avgs, key=avgs.get)
    report(
        "Ablation — auto-tuner decision vs problem setup "
        f"(C0 numbering, P={P}, 26 neighbours)\n"
        + render_table(
            ["setup", "pairwise (s)", "crystal (s)", "ratio", "winner"],
            rows, floatfmt="{:.3e}",
        )
        + "\n(paper, Section VI: 'as ... the problem setup changes, it "
        "is possible that crystal router may be\nused instead of "
        "pairwise exchange')"
    )

    # The crossover exists: both methods win somewhere in the sweep.
    assert "crystal" in winners and "pairwise" in winners
    # Crystal at the small end, pairwise at the large end.
    assert winners[0] == "crystal"
    assert winners[-1] == "pairwise"
