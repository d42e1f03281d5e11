"""Ablation — how the network model moves the gs-method decision.

Section VI motivates building "robust network models for system
simulation": which exchange algorithm wins depends on the machine's
latency/bandwidth balance, which is exactly what co-design studies
vary.  This ablation sweeps the network parameters around the Compton
baseline and reports each method's time and the winner.

Checked claims: higher latency favours the (fewer-message) crystal
router relative to pairwise; higher bandwidth cost (lower bandwidth)
punishes the allreduce method hardest, since it ships the dense global
vector.
"""

from dataclasses import replace


from repro.analysis import render_table
from repro.gs import gs_setup, time_method
from repro.mesh import BoxMesh, Partition, continuous_numbering
from repro.mpi import Runtime
from repro.perfmodel import MachineModel

P = 16
PROC = (4, 2, 2)
LOCAL = (2, 2, 2)
N = 6


def _time_methods(machine):
    mesh = BoxMesh(
        shape=tuple(a * b for a, b in zip(PROC, LOCAL)), n=N
    )
    part = Partition(mesh, proc_shape=PROC)

    def main(comm):
        handle = gs_setup(continuous_numbering(part, comm.rank), comm)
        return {
            m: time_method(handle, m, trials=2).avg
            for m in ("pairwise", "crystal", "allreduce")
        }

    runtime = Runtime(nranks=P, machine=machine)
    return runtime.run(main)[0]


def test_network_ablation(report):
    base = MachineModel.preset("compton")
    nets = {
        "baseline (Compton)": base,
        "20x latency": base.with_network(
            replace(base.network, latency=base.network.latency * 20,
                    o_send=base.network.o_send * 20,
                    o_recv=base.network.o_recv * 20)
        ),
        "10x less bandwidth": base.with_network(
            replace(base.network, bandwidth=base.network.bandwidth / 10,
                    shm_bandwidth=base.network.shm_bandwidth / 10)
        ),
        "0.1x latency": base.with_network(
            replace(base.network, latency=base.network.latency / 10,
                    o_send=base.network.o_send / 10,
                    o_recv=base.network.o_recv / 10)
        ),
    }
    table = {}
    rows = []
    for name, machine in nets.items():
        t = _time_methods(machine)
        table[name] = t
        winner = min(t, key=t.get)
        rows.append((name, t["pairwise"], t["crystal"], t["allreduce"],
                     winner))
    report(
        "Ablation — gs method times under network variants "
        f"(C0 numbering, P={P}, N={N})\n"
        + render_table(
            ["network", "pairwise", "crystal", "allreduce", "winner"],
            rows, floatfmt="{:.3e}",
        )
    )

    # Latency inflation must help crystal *relative to* pairwise: the
    # crystal/pairwise ratio shrinks when messages get expensive.
    r_base = table["baseline (Compton)"]
    r_lat = table["20x latency"]
    assert (r_lat["crystal"] / r_lat["pairwise"]) < (
        r_base["crystal"] / r_base["pairwise"]
    )

    # Bandwidth cuts hit the dense-vector allreduce hardest.
    r_bw = table["10x less bandwidth"]
    assert (r_bw["allreduce"] / r_base["allreduce"]) > (
        r_bw["pairwise"] / r_base["pairwise"]
    )
    assert (r_bw["allreduce"] / r_base["allreduce"]) > (
        r_bw["crystal"] / r_base["crystal"]
    )
