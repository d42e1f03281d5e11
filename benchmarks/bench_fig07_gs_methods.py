"""Fig. 7 — gather-scatter method comparison, CMT-bone vs Nekbone.

Paper setup (verbatim):

    Number of processors: 256        Processor Distribution = 8, 8, 4
    Elements per process = 100       Element Distribution   = 40, 40, 16
    Total elements = 25600           Local Element Distrib. = 5, 5, 4
    Gridpoints per element = 10      Dimensions = 3

on Compton (Sandy Bridge + Mellanox QDR).  Paper results (seconds,
single exchange, avg/min/max over ranks):

    CMT-bone  pairwise exchange  0.000319  0.000244  0.000354
    CMT-bone  crystal router     0.000800  0.000789  0.000808
    Nekbone   pairwise exchange  0.000639  0.000558  0.000686
    Nekbone   crystal router     0.000664  0.000657  0.000670

and: "All_reduce is too expensive for both the mini-apps", CMT-bone
selects pairwise, Nekbone's crystal router is competitive (the run
shown uses it).

Reproduction: the exact problem setup on the simulated Compton model.
Checked shape claims: (a) pairwise beats crystal for CMT-bone by a
clear factor; (b) the two methods are much closer for Nekbone;
(c) allreduce is the most expensive method for both; (d) magnitudes
land within an order of magnitude of the paper's numbers.
"""

import pytest

from repro.core import CMTBoneConfig, NekboneConfig, fig7_table
from repro.core.cmtbone import CMTBone
from repro.core.nekbone import Nekbone
from repro.mpi import Runtime
from repro.perfmodel import MachineModel

PAPER = {
    ("CMT-bone", "pairwise"): (0.000318934, 0.000244498, 0.000353503),
    ("CMT-bone", "crystal"): (0.000799977, 0.000788808, 0.000808311),
    ("Nekbone", "pairwise"): (0.000638981, 0.000557685, 0.000685811),
    ("Nekbone", "crystal"): (0.000663779, 0.000657296, 0.000669909),
}


@pytest.fixture(scope="module")
def fig7_results():
    cmt_cfg = CMTBoneConfig.fig7()
    nek_cfg = NekboneConfig.fig7()

    def main(comm):
        cmt = CMTBone(comm, cmt_cfg)
        nek = Nekbone(comm, nek_cfg)
        return {
            "cmt": cmt.autotune,
            "cmt_method": cmt.handle.method,
            "nek": nek.autotune,
            "nek_method": nek.handle.method,
            "setup": cmt.partition.describe(),
        }

    runtime = Runtime(nranks=256, machine=MachineModel.preset("compton"))
    return runtime.run(main)[0]


def test_fig07_gs_method_comparison(report, fig7_results):
    r = fig7_results
    report("Fig. 7 setup\n" + r["setup"])
    report(
        "Fig. 7 — exchange-method timing (modelled Compton network)\n"
        + fig7_table(r["cmt"], r["nek"],
                     methods=("pairwise", "crystal", "allreduce"))
    )
    paper_rows = "\n".join(
        f"  {app:<9s} {m:<9s} avg={v[0]:.6f} min={v[1]:.6f} max={v[2]:.6f}"
        for (app, m), v in PAPER.items()
    )
    report("Paper's measured values (Compton hardware):\n" + paper_rows)

    cmt, nek = r["cmt"], r["nek"]

    # (a) pairwise clearly beats crystal for CMT-bone (paper: 2.5x).
    assert cmt["pairwise"].avg < cmt["crystal"].avg
    assert cmt["crystal"].avg / cmt["pairwise"].avg > 1.5
    assert r["cmt_method"] == "pairwise"

    # (b) the gap is much smaller for Nekbone (paper: 1.04x).
    nek_ratio = nek["crystal"].avg / nek["pairwise"].avg
    cmt_ratio = cmt["crystal"].avg / cmt["pairwise"].avg
    assert nek_ratio < cmt_ratio
    assert nek_ratio < 1.6

    # (c) allreduce is the worst method for both mini-apps.
    for t in (cmt, nek):
        assert t["allreduce"].avg > t["pairwise"].avg
        assert t["allreduce"].avg > t["crystal"].avg

    # (d) magnitudes within ~an order of magnitude of the paper.
    for (app, method), (p_avg, _, _) in PAPER.items():
        ours = (cmt if app == "CMT-bone" else nek)[method].avg
        assert p_avg / 10 < ours < p_avg * 10, (app, method, ours, p_avg)


def test_fig07_statistics_consistent(fig7_results):
    for app in ("cmt", "nek"):
        for t in fig7_results[app].values():
            assert 0 < t.mn <= t.avg <= t.mx
