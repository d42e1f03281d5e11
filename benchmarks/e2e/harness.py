"""Child processes, pinning, deadlines, rounds and the arithmetic over them.

The harness is a single process that runs one child at a time (a closed
loop with one client).  It is built around three facts measured on the
2-CPU host this repo is developed on (see README.md):

1. thread ranks spread over two CPUs are bimodal (cross-CPU GIL
   hand-off), so every child and its whole process tree is pinned to
   one CPU — the highest in the harness's affinity set;
2. more rank processes than CPUs is noise, so no workload has any;
3. the host has slow phases (a slower CPU, not lost scheduling) that
   last from seconds to minutes, so rounds are interleaved and every
   child's wall time is divided by the slowdown an in-situ probe
   measured while it ran (refspin.py).

Nothing here imports numpy or ``repro``: a child's ``ru_maxrss`` starts
from the size of the process that forked it, so the harness stays small.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import workloads as wl
from refspin import NOMINAL_CHUNK_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: A child that has not exited after this long is killed and counted
#: as failed (ROADMAP item 4's stall must not hang the benchmark).
CHILD_DEADLINE_S = 30.0
#: Rounds of the full (all-workload) run; a time-bounded run makes at
#: least MIN_ROUNDS.
ROUNDS = 6
MIN_ROUNDS = 4

#: Probe chunks to wait for before the first child (about half a second).
SETTLE_CHUNKS = 25

_SHM_DIR = "/dev/shm"

#: Fresh interpreter straight into the public entry point.
CLI_ENTRY = (
    "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


@dataclass
class Child:
    """One finished (or killed) child process."""

    label: str
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float
    timed_out: bool = False
    #: ``time.perf_counter`` at spawn and at the reaped exit.
    t0: float = 0.0
    t1: float = 0.0
    #: Host slowdown while the child ran (1.0 = the quiet development
    #: host; see refspin.py).
    slowdown: float = 1.0
    #: Set by the output check; empty means the child is good.
    error: str = ""
    signature: str = ""

    @property
    def norm_s(self) -> float:
        """Wall time at the nominal host speed."""
        return self.wall_s / self.slowdown

    @property
    def ok(self) -> bool:
        return not self.error


# -- pinning -----------------------------------------------------------


def pinned_cpu() -> set:
    """The one CPU timed children run on (the harness keeps the rest)."""
    return {max(os.sched_getaffinity(0))}


@contextmanager
def _affinity(cpus: Iterable[int]):
    """Narrow the harness's own affinity across a fork, then restore it.

    A process started inside inherits the pin from its first
    instruction, and the harness keeps its CPUs.
    """
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


def child_env(cdir: Path) -> Dict[str, str]:
    """Hermetic environment: everything a child writes lands in cdir."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env.update(
        PYTHONPATH=f"{SRC}{os.pathsep + inherited if inherited else ''}",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(cdir / "cache"),
        REPRO_HOST_ID="bench",
        TMPDIR=str(cdir),
    )
    return env


# -- one child ---------------------------------------------------------


def _shm_names() -> set:
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def _sweep_shm(before: set) -> int:
    """Unlink shared-memory segments a killed child left behind."""
    removed = 0
    for name in _shm_names() - before:
        path = os.path.join(_SHM_DIR, name)
        try:
            if os.stat(path).st_uid == os.getuid():
                os.unlink(path)
                removed += 1
        except OSError:
            pass
    return removed


def run_child(label: str, cmd: Sequence[str], env: Dict[str, str],
              cpus: Iterable[int],
              deadline_s: float = CHILD_DEADLINE_S) -> Child:
    """Run ``cmd`` in its own session on ``cpus``; kill it at the deadline.

    Wall time runs from just before the spawn to the reaped exit.
    stdout/stderr are captured to memory.
    """
    shm_before = _shm_names()
    t0 = time.perf_counter()
    with _affinity(cpus):
        proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )

    chunks = {proc.stdout: [], proc.stderr: []}
    pidfd = os.pidfd_open(proc.pid)
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        sel.register(pidfd, selectors.EVENT_READ)
        # Until the child has exited *and* both pipes hit EOF (a leaked
        # descendant holding a pipe open is a stall like any other).
        while len(sel.get_map()) > 0:
            left = t0 + deadline_s - time.perf_counter()
            if left <= 0 and not timed_out:
                timed_out = True
                _kill_group(proc.pid)
            events = sel.select(timeout=max(left, 0.0) if not timed_out
                                else 2.0)
            if timed_out and not events:
                break  # pipes still held 2 s after SIGKILL: give up
            for key, _ in events:
                if key.fileobj == pidfd:
                    sel.unregister(pidfd)
                    continue
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    os.close(pidfd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()

    child = Child(
        label=label, wall_s=wall, returncode=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        maxrss_mb=usage.ru_maxrss / 1024.0, timed_out=timed_out,
        t0=t0, t1=t0 + wall,
    )
    if timed_out:
        swept = _sweep_shm(shm_before)
        child.error = (f"stalled: killed after {deadline_s:g} s "
                       f"({swept} shm segments swept)")
    elif proc.returncode != 0:
        tail = child.stderr.decode("utf-8", "replace").strip()[-400:]
        child.error = f"exit status {proc.returncode}: {tail}"
    return child


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- rounds ------------------------------------------------------------


@dataclass
class Samples:
    """Everything one workload produced over the rounds."""

    workload: wl.Workload
    full: List[Child] = field(default_factory=list)
    setup: List[Child] = field(default_factory=list)
    reference: Optional[Child] = None
    errors: List[str] = field(default_factory=list)

    def children(self) -> List[Child]:
        extra = [self.reference] if self.reference else []
        return self.full + self.setup + extra


def _workload_child(w: wl.Workload, seed: int, tmp: Path, tag: str,
                    setup: bool, probes: "HostProbes",
                    on_threads: bool = False) -> Child:
    """One CLI child of workload ``w`` in a private directory.

    ``on_threads`` swaps the job's backend for thread ranks (the
    cross-backend reference child).
    """
    cdir = tmp / f"{w.name}-{tag}"
    cdir.mkdir()
    try:
        argv = wl.build_argv(w, seed, cdir, setup)
        if on_threads:
            i = argv.index("--backend")
            argv[i + 1] = "threads"
        cpus = os.sched_getaffinity(0) if w.all_cpus else pinned_cpu()
        child = run_child(
            f"{w.name}/{tag}", [sys.executable, "-c", CLI_ENTRY, *argv],
            child_env(cdir), cpus,
        )
        probes.observe(child, cpus)
        if child.ok:
            child.signature, err = wl.check_output(
                w, child.stdout, cdir, setup)
            child.error = err or ""
        return child
    finally:
        shutil.rmtree(cdir, ignore_errors=True)


def warm_bytecode(tmp: Path) -> None:
    """Compile src/repro once so no timed child pays for a cold cache."""
    run_child(
        "compileall",
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        child_env(tmp), pinned_cpu(),
    )


class HostProbes:
    """One refspin.py per CPU: how much slower than nominal the host ran.

    A child's slowdown is the mean, over the CPUs it could use, of *mean
    probe chunk while it ran / NOMINAL_CHUNK_S*.  Dividing the child's
    wall time by it removes the host's slow phases from the sample; what
    the program itself costs is left untouched, because the probe's
    work never changes.
    """

    def __init__(self, tmp: Path, cpus: Iterable[int]) -> None:
        self._procs: Dict[int, subprocess.Popen] = {}
        for cpu in sorted(cpus):
            with _affinity({cpu}):
                self._procs[cpu] = subprocess.Popen(
                    [sys.executable, str(HERE / "refspin.py")],
                    env=child_env(tmp), stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True,
                )
        # Let every probe reach its steady rhythm before the first
        # child starts beside it.
        for cpu in self._procs:
            while self._ask(cpu, 0.0, float("inf"))["n"] < SETTLE_CHUNKS:
                time.sleep(0.05)

    def _ask(self, cpu: int, t0: float, t1: float) -> dict:
        proc = self._procs[cpu]
        proc.stdin.write(f"{t0!r} {t1!r}\n")
        proc.stdin.flush()
        return json.loads(proc.stdout.readline())

    def observe(self, child: Child, cpus: Iterable[int]) -> None:
        """Set ``child.slowdown`` from the probes on ``cpus``."""
        answers = [self._ask(cpu, child.t0, child.t1) for cpu in cpus]
        factors = [a["mean_s"] / NOMINAL_CHUNK_S for a in answers if a["n"]]
        child.slowdown = statistics.fmean(factors) if factors else 1.0

    def close(self) -> None:
        for proc in self._procs.values():
            proc.stdin.close()
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self) -> "HostProbes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_rounds(workloads: Sequence[wl.Workload], seed: int, tmp: Path,
               seconds: Optional[float] = None, log=print
               ) -> Dict[str, Samples]:
    """Interleaved rounds: each runs every workload's full then set-up child.

    With ``seconds`` the loop is time-bounded: it makes at least
    ``MIN_ROUNDS`` rounds and then stops as soon as another round like
    the longest so far would overrun.  Without it, ``ROUNDS`` rounds.
    """
    out = {w.name: Samples(w) for w in workloads}
    cpus = (os.sched_getaffinity(0) if any(w.all_cpus for w in workloads)
            else pinned_cpu())
    with HostProbes(tmp, cpus) as probes:
        t_start = time.perf_counter()
        longest = 0.0
        r = 0
        while True:
            t_round = time.perf_counter()
            for w in workloads:
                s = out[w.name]
                if w.cross_backend and r == 0:
                    # Untimed: the same job on thread ranks, whose stdout
                    # the timed backend must reproduce byte for byte.
                    s.reference = _workload_child(
                        w, seed, tmp, "ref", False, probes, on_threads=True)
                s.full.append(
                    _workload_child(w, seed, tmp, f"full{r}", False, probes))
                s.setup.append(
                    _workload_child(w, seed, tmp, f"setup{r}", True, probes))
            r += 1
            now = time.perf_counter()
            longest = max(longest, now - t_round)
            # wall seconds (host slowdown) of the full / set-up child
            log(f"round {r}: " + ", ".join(
                f"{n} {s.full[-1].wall_s:.3f} (x{s.full[-1].slowdown:.2f})"
                f" / {s.setup[-1].wall_s:.3f} (x{s.setup[-1].slowdown:.2f})"
                for n, s in out.items()))
            for s in out.values():
                for c in (s.full[-1], s.setup[-1]):
                    if not c.ok:
                        log(f"  FAILED {c.label}: {c.error}")
            if seconds is None:
                if r >= ROUNDS:
                    break
            elif r >= MIN_ROUNDS and now - t_start + longest > seconds:
                break
    for s in out.values():
        s.errors = cross_round_errors(s)
    return out


def cross_round_errors(s: Samples) -> List[str]:
    """Signatures must repeat over the rounds and match the reference."""
    errors = []
    for kind, children in (("full", s.full), ("set-up", s.setup)):
        sigs = {c.signature for c in children if c.ok}
        if len(sigs) > 1:
            errors.append(f"{kind} output differs between rounds "
                          f"({len(sigs)} distinct digests)")
    ref = s.reference
    if ref is not None and ref.ok and any(
            c.ok and c.signature != ref.signature for c in s.full):
        errors.append("stdout differs from the thread-rank reference")
    return errors


# -- arithmetic over the rounds -----------------------------------------


def over_rounds(values: Sequence[float]) -> Dict[str, float]:
    """min / median / max / n of one quantity over the rounds.

    n is 4 to 7: too few for any percentile above the median.
    """
    return {
        "min": min(values), "median": statistics.median(values),
        "max": max(values), "n": len(values),
    }


def throughput(units: int, total_s: float, setup_s: float) -> float:
    """Work units per second of the stepping (non-set-up) part."""
    return units / (total_s - setup_s)


def faster_half(values: Sequence[float]) -> float:
    """Mean of the faster half of the rounds (at least two of them).

    After the division by the host slowdown the samples have a tight
    core (+-2 %), a short fast tail (rounds the probe over-corrected,
    down to -4 %) and a long slow tail (disturbances a Python loop does
    not feel, such as a neighbour's memory traffic: +7 to +12 %, and
    they come in runs).  The mean of the faster half ignores the slow
    tail and averages the fast one.  Over ten driver-form runs made on a
    very noisy day it spread 4-8 % where the median spread 6-12 % and
    the minimum 5-8 % (raw minimum wall: 8-27 %).
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(2, len(ordered) // 2)])


def end_to_end(s: Samples) -> Dict[str, Dict[str, float]]:
    """The four end-to-end metrics of one workload (good children only).

    A timing's value is ``faster_half`` of the children's host-normalised
    wall times (``Child.norm_s``); the raw wall times and the median
    slowdown are reported beside it.
    """
    full = [c for c in s.full if c.ok]
    setup = [c for c in s.setup if c.ok]
    if not full or not setup:
        return {}

    def timing(children: List[Child]) -> Dict[str, float]:
        norm = [c.norm_s for c in children]
        wall = over_rounds([c.wall_s for c in children])
        return {
            "value": faster_half(norm), "unit": "s", **over_rounds(norm),
            "wall_min": wall["min"], "wall_median": wall["median"],
            "wall_max": wall["max"],
            "slowdown": statistics.median(c.slowdown for c in children),
        }

    total, set_up = timing(full), timing(setup)
    rss = over_rounds([c.maxrss_mb for c in full])
    return {
        "total_s": total,
        "setup_s": set_up,
        "throughput_per_s": {
            "value": throughput(s.workload.units, total["value"],
                                set_up["value"]),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": rss["max"], "unit": "MB", **rss},
    }
