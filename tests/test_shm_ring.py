"""The procs backend's shared-memory ring: fragments and hygiene.

The ring lives in an anonymous shared mapping, so nothing a job does can
leave a name in ``/dev/shm`` or start ``multiprocessing``'s resource
tracker.  A record longer than a quarter of the ring travels as
consecutive fragments that ``pop`` joins; a record its writer abandons
between fragments is dropped whole.
"""

import json
import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.mpi.errors import AbortError
from repro.mpi.shm import ShmRing

CTX = mp.get_context("fork")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def ring():
    r = ShmRing(CTX, capacity=4096)
    yield r
    r.destroy()


def pop_one(ring, timeout=10.0):
    """Pop the next whole record, failing the test if none arrives."""
    data = ring.pop(timeout=timeout)
    assert data is not None, "no record arrived"
    return data


def read_on_thread(ring, count):
    """Start a thread that pops ``count`` records into the returned list."""
    out = []

    def loop():
        for _ in range(count):
            out.append(ring.pop(timeout=10.0))

    t = threading.Thread(target=loop, daemon=True)
    t.start()
    return t, out


class TestRing:
    def test_nonblocking_pop(self, ring):
        assert ring.pop(0) is None and ring.pop(0.0) is None
        big = b"b" * (ring.capacity // 2)  # two fragments, fits the ring
        assert ring.push(b"inline")
        assert ring.push(big)
        assert ring.pop(0) == b"inline"
        assert ring.pop(0) == big
        # semaphore back at zero: nothing to take, now or non-blocking
        assert not ring.data_sem.acquire(False)
        assert ring.pop(0) is None
        assert ring._head() == ring._tail()

    def test_dropped_record_leaves_ring_usable(self, ring):
        while ring.capacity - (ring._tail() - ring._head()) >= 64:
            assert ring.push(b"f" * 59)
        assert not ring.push(b"d" * 100, give_up=lambda: True)
        while ring.pop(0) is not None:
            pass
        assert ring.push(b"after")
        assert ring.pop(timeout=1.0) == b"after"
        assert ring.pop(0) is None


def _writer(ring, w, sizes, reps):
    for rep in range(reps):
        for k, n in enumerate(sizes):
            ring.push(bytes([16 * w + k]) * n)


def test_two_forked_writers_fragments_stay_whole_and_in_order(ring):
    cap = ring.capacity
    sizes = [0, 1, cap // 4 - 5, cap // 4 + 1, 3 * cap]
    reps = 2
    writers = [
        CTX.Process(target=_writer, args=(ring, w, sizes, reps))
        for w in (1, 2)
    ]
    for p in writers:
        p.start()
    got = [pop_one(ring) for _ in range(2 * reps * len(sizes))]
    for p in writers:
        p.join(timeout=10.0)
        assert p.exitcode == 0
    assert ring.pop(0) is None
    assert sum(1 for rec in got if not rec) == 2 * reps
    want = [(k, n) for _ in range(reps) for k, n in enumerate(sizes) if n]
    for w in (1, 2):
        mine = [rec for rec in got if rec and rec[0] // 16 == w]
        for rec in mine:
            assert rec == rec[:1] * len(rec), "a record was mixed"
        assert [(rec[0] % 16, len(rec)) for rec in mine] == want


@pytest.mark.parametrize("stop", ["abort", "give_up"])
@pytest.mark.parametrize("after_len", [4, 12288])
def test_record_cut_between_fragments_is_dropped(ring, stop, after_len):
    after = b"N" * after_len
    abort = threading.Event()
    abort.set()
    cut = b"x" * (3 * ring.capacity)
    # No reader yet: the ring fills with the first fragments, then the
    # writer's check fires between two of them.
    if stop == "abort":
        with pytest.raises(AbortError):
            ring.push(cut, abort_event=abort)
    else:
        assert not ring.push(cut, give_up=lambda: True)
    assert ring._tail() > ring.capacity // 2, "some fragments were pushed"
    t, out = read_on_thread(ring, 1)
    assert ring.push(after)
    t.join(timeout=10.0)
    assert out == [after]
    assert ring.pop(0) is None


_FRESH_JOB = textwrap.dedent("""
    import json, os, sys
    import numpy as np
    from repro.mpi import Runtime
    from repro.mpi.backend import ProcsBackend

    def main(comm):
        peer = 1 - comm.rank
        out = []
        for n in (3, 100, 4000):  # the last is several rings long
            got = comm.sendrecv(np.full(n, comm.rank, dtype=np.float64),
                                dest=peer, source=peer)
            out.append(float(got.sum()))
        return out

    def children():
        found = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read().replace(b"\\0", b" ").decode()
            except (OSError, IndexError, ValueError):
                continue
            if ppid == os.getpid():
                found.append(cmd)
        return found

    before = set(os.listdir("/dev/shm"))
    rt = Runtime(nranks=2, backend=ProcsBackend(ring_capacity=8192))
    results = rt.run(main)
    print(json.dumps({
        "results": results,
        "new_shm": sorted(set(os.listdir("/dev/shm")) - before),
        "children": children(),
        "shared_memory_imported": "multiprocessing.shared_memory" in sys.modules,
    }))
""")


@pytest.mark.skipif(
    not (Path("/dev/shm").is_dir() and Path("/proc/self/stat").exists()),
    reason="needs /dev/shm and /proc",
)
def test_procs_job_starts_no_resource_tracker_and_names_nothing():
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_JOB],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["results"] == [[3.0, 100.0, 4000.0], [0.0, 0.0, 0.0]]
    assert report["new_shm"] == []
    assert not [c for c in report["children"] if "resource_tracker" in c]
    assert report["shared_memory_imported"] is False
