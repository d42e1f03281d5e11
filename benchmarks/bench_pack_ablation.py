"""Ablation — packed (gs_op_many) vs per-field face exchanges.

CMT-nek ships five conserved-variable traces per RK stage.  gslib's
vector interface packs them into one message per neighbour; this
ablation measures the win on the mini-app across network regimes.

Checked claims: packing is never slower; its advantage grows as
per-message cost (latency/overhead) grows — the co-design signal that
message *count*, not just volume, matters on latency-bound networks.
"""

from dataclasses import replace


from repro.analysis import render_table
from repro.core import CMTBoneConfig, run_cmtbone
from repro.mpi import Runtime
from repro.perfmodel import MachineModel


def _step_time(pack, machine):
    config = CMTBoneConfig(
        n=8,
        local_shape=(2, 2, 2),
        proc_shape=(2, 2, 2),
        nsteps=5,
        work_mode="proxy",
        gs_method="pairwise",
        pack_fields=pack,
    )
    runtime = Runtime(nranks=8, machine=machine)
    results = runtime.run(run_cmtbone, args=(config,))
    return max(r.vtime_total for r in results) / config.nsteps


def test_pack_ablation(report):
    base = MachineModel.preset("compton")
    slow_msgs = base.with_network(
        replace(base.network,
                latency=base.network.latency * 10,
                o_send=base.network.o_send * 10,
                o_recv=base.network.o_recv * 10)
    )
    rows = []
    gains = {}
    for name, machine in (("compton", base), ("10x msg cost", slow_msgs)):
        t_sep = _step_time(False, machine)
        t_pack = _step_time(True, machine)
        gains[name] = t_sep / t_pack
        rows.append((name, t_sep, t_pack, t_sep / t_pack))
    report(
        "Ablation — per-field vs packed (gs_op_many) face exchange, "
        "CMT-bone step (8 ranks, N=8, 5 fields)\n"
        + render_table(
            ["network", "per-field (s)", "packed (s)", "speedup"],
            rows, floatfmt="{:.4g}",
        )
    )
    assert all(g >= 1.0 for g in gains.values())
    # Packing matters more when messages are expensive.
    assert gains["10x msg cost"] > gains["compton"]
