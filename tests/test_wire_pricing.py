"""Virtual time is a function of the logical payload, not of ``pickle``.

Every message the crystal router, the migrations that ride it and the
load balancer's cost exchange put on the wire is a numeric array
charged its own size.  So nothing observable may move when the pickle
protocol does, and the jobs below price no payload by pickling it.
"""

import pickle

import numpy as np
import pytest

from repro.core import CMTBoneConfig
from repro.core.cmtbone import run_cmtbone
from repro.lb import RebalancePolicy
from repro.mpi import Runtime, datatypes
from repro.solver import sod_problem

from .test_field_batching import _observables as observables
from .test_mpi_datatypes import counting_pickle


def cmtbone(**config):
    cfg = CMTBoneConfig(n=5, local_shape=(2, 2, 2), nsteps=2, **config)

    def main(comm):
        res = run_cmtbone(comm, cfg)
        return res.vtime_total.hex(), res.chosen_method

    return main


def sod(mode, **policy):
    setup = sod_problem(
        4, n=5, nelx=32, gs_method="crystal", imbalance=0.4,
        lb_policy=RebalancePolicy(mode=mode, **policy),
    )

    def main(comm):
        solver, state = setup(comm)
        final = solver.run(state, 8)
        assert solver.lb.rebalances >= 1
        return final.u.tobytes(), solver.lb.rebalances

    return main


JOBS = {
    "cmtbone-crystal-3": (3, cmtbone(gs_method="crystal")),
    "cmtbone-crystal-8": (8, cmtbone(gs_method="crystal")),
    "cmtbone-pack-crystal": (8, cmtbone(gs_method="crystal", pack_fields=True)),
    "cmtbone-autotuned": (8, cmtbone()),
    "sod-lb-every": (4, sod("every", every=3)),
    "sod-lb-auto": (4, sod("auto", threshold=1.05)),
}


def run(job):
    nranks, body = JOBS[job]

    def main(comm):
        return body(comm), observables(comm)

    rt = Runtime(nranks=nranks, trace_messages=True)
    return rt.run(main), rt.trace.events()


@pytest.mark.parametrize("job", list(JOBS))
def test_the_pickle_protocol_moves_nothing(job, monkeypatch):
    """Results, clocks, every profile row and the full message trace
    (sizes included) under protocol 2 equal the default protocol's."""
    assert pickle.HIGHEST_PROTOCOL > 2
    want = run(job)
    monkeypatch.setattr(datatypes.pickle, "HIGHEST_PROTOCOL", 2)
    assert len(pickle.dumps({0: np.arange(3)}, pickle.HIGHEST_PROTOCOL)) != len(
        pickle.dumps({0: np.arange(3)}, 5)
    )
    assert run(job) == want


@pytest.mark.parametrize("job", list(JOBS))
def test_no_payload_is_priced_by_pickling_it(job, monkeypatch):
    """Set-up, auto-tune, stepping, routing, migrating and monitoring:
    every ``pickle.dumps`` left in ``repro.mpi.datatypes`` snapshots a
    payload that states its own size (``gs_setup``'s tuples of arrays,
    the allreduce method's sparse vector)."""
    priced, dumps = [], []
    stub = counting_pickle(dumps)
    counted = stub.dumps

    def dumps_and_note_the_unsized(obj, protocol=None):
        if datatypes._sized(obj) is None:
            priced.append(type(obj))
        return counted(obj, protocol)

    stub.dumps = staticmethod(dumps_and_note_the_unsized)
    monkeypatch.setattr(datatypes, "pickle", stub)
    run(job)
    assert priced == []
