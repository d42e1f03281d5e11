"""Liveness soak of the execution backends (ROADMAP item 1(d)).

Every fault path of procs and sockets, and every one of threads but the
hard exit, repeated until a rare stall would show: 100 runs of each
scenario on 4 ranks (more than a 2-core host has cores) with a 10 us
thread switch interval, each run in its own child process under a hard
wall deadline.  A run that misses the deadline is a stall and is
reported with the ``faulthandler`` stacks of the driver and of every
rank process; every other run must reproduce the first run's outcome
exactly — error type and text, or results and virtual clock totals.

Slow tier: ``pytest tests/test_backend_soak.py -m slow -s -o
faulthandler_timeout=0`` (~20 min; a cell outlasts the tier-1
per-test stack-dump timer by design).
This file is also the child: ``python tests/test_backend_soak.py
<backend> <scenario>`` runs one job and prints its outcome as JSON.
"""

import faulthandler
import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPEATS = 100
NRANKS = 4
#: Hard wall deadline of one run.
DEADLINE = 30.0
ROUNDS = 6


def _exchange(comm, i):
    import numpy as np

    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    total = comm.allreduce(comm.rank + i)
    comm.send(np.full(32, float(comm.rank + i)), dest=right, tag=i)
    got = comm.recv(source=left, tag=i)
    return total + float(got[0])


def clean(comm):
    return sum(_exchange(comm, i) for i in range(3 * ROUNDS))


def raises(comm):
    for i in range(ROUNDS):
        if comm.rank == 2 and i == 3:
            raise RuntimeError("soak boom")
        _exchange(comm, i)


def hard_exit(comm):
    for i in range(ROUNDS):
        if comm.rank == 1 and i == 3:
            # Mid-exchange: the right neighbour has this round's message,
            # the left one is still owed its answer.
            comm.send(None, dest=(comm.rank + 1) % comm.size, tag=77)
            os._exit(3)
        _exchange(comm, i)


def deadlock(comm):
    for i in range(3):
        _exchange(comm, i)
    comm.recv(source=(comm.rank + 1) % comm.size, tag=99)


SCENARIOS = {f.__name__: f for f in (clean, raises, hard_exit, deadlock)}


def _child(backend, scenario):
    from repro.mpi import Runtime

    # Both inherited by the forked ranks: a signal handler survives a
    # fork, a ``dump_traceback_later`` timer thread does not.
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    sys.setswitchinterval(1e-5)
    rt = Runtime(nranks=NRANKS, backend=backend)
    try:
        out = {"results": rt.run(SCENARIOS[scenario]),
               "clocks": [s.total for s in rt.clock_stats()]}
    except Exception as exc:  # the outcome under test, whatever it is
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))


def _run_once(backend, scenario):
    """One run in a child session: ``(outcome, None)`` or ``(None, dump)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), backend, scenario],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=DEADLINE)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGUSR1)  # the driver and its ranks
        time.sleep(1.0)
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, err
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {err[-2000:]}", None
    return out.strip().splitlines()[-1], None


@pytest.mark.slow
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ["threads", "procs", "sockets"])
def test_soak(backend, scenario):
    if backend == "threads" and scenario == "hard_exit":
        pytest.skip("os._exit kills the whole process there")
    stalls, outcomes = [], {}
    for _ in range(REPEATS):
        outcome, dump = _run_once(backend, scenario)
        if outcome is None:
            stalls.append(dump)
        else:
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    mismatches = REPEATS - len(stalls) - max(outcomes.values(), default=0)
    print(f"soak {backend}/{scenario}: {REPEATS} runs, "
          f"{len(stalls)} stalls, {mismatches} outcome mismatches")
    assert not stalls, (
        f"{len(stalls)} of {REPEATS} runs stalled; first dump:\n{stalls[0]}"
    )
    assert len(outcomes) == 1, outcomes
    (outcome,) = outcomes
    if scenario == "clean":
        assert "clocks" in outcome
    else:
        assert "error" in outcome, outcome


if __name__ == "__main__":
    _child(*sys.argv[1:3])
