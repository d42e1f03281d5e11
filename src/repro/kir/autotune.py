"""Persistent per-host autotuning of generated kernel schedules.

Mirrors the gather-scatter setup-time tuner (``repro.gs.autotune``,
paper Section VI) at the kernel tier: for a concrete ``(program, N,
Nel)`` problem, time every applicable schedule from
:data:`repro.kir.passes.SCHEDULES` and remember the winner.

Because kernel timings depend only on the machine (not the run), each
winner is persisted as one small JSON file per ``(program, N, Nel,
lowering)`` in a per-host directory (:func:`repro.store.host_dir`), so
the measurement cost is paid once per host::

    <cache dir>/<host>/dudr-n10-nel64-numpy-v2.json
        {"schedule": "gemm",
         "timings": {"gemm": 1.2e-4, "plane": 9.8e-4, ...},
         "checked": ["gemm", "plane", ...]}

The cache directory is ``$REPRO_CACHE_DIR/kernel-autotune`` when the
environment variable is set (tests and CI point it at a temp
directory), else ``~/.cache/repro/kernel-autotune``.  Entries follow
the :mod:`repro.store` protocol: each is written atomically to its own
file, so two processes tuning different programs never touch the same
file, and a missing, corrupt or wrong-type entry is a miss (the last
two with a warning) that retunes rather than an error.
:data:`CACHE_STATS` counts hits and misses, so a warm second run is
observable.

Candidates are screened for correctness before they are timed: each
schedule's output must match the reference schedule to ``allclose``
with ``rtol=1e-10`` (schedules in
:data:`repro.kir.passes.ORDER_PRESERVING` are additionally
bitwise-identical to the reference loops in
``tests/kernel_oracles.py``, which the test suite asserts).
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autotune import best_time
from ..store import atomic_write, host_dir, read_entry
from .ir import Program
from .lower import DEFAULT_LOWERING, LoweredKernel, lower
from .passes import ORDER_PRESERVING, applicable_schedules, schedule

#: Layout version, part of every entry's file name.  2: one file per
#: entry (1 was one ``kernel-autotune.json`` table, now ignored).
CACHE_VERSION = 2
CACHE_DIRNAME = "kernel-autotune"

#: Normwise relative tolerance for the candidate correctness screen
#: (``max|got - ref| <= SCREEN_RTOL * max|ref|`` — elementwise rtol is
#: meaningless at near-zero entries of a reassociated contraction).
SCREEN_RTOL = 1e-10


def _screen_close(got: np.ndarray, ref: np.ndarray) -> bool:
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    if scale == 0.0:
        return not np.any(got)
    return float(np.max(np.abs(got - ref))) <= SCREEN_RTOL * scale


@dataclass
class CacheStats:
    """Process-wide cache telemetry (reset per test)."""

    hits: int = 0
    misses: int = 0
    load_errors: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.load_errors = 0


CACHE_STATS = CacheStats()


def default_cache_path() -> str:
    """Resolve the autotune cache directory (env-overridable)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.path.join(root, CACHE_DIRNAME)


def cache_key(
    program: str, n: int, nel: int, lowering: str = DEFAULT_LOWERING
) -> str:
    return f"{program}-n{n}-nel{nel}-{lowering}"


def entry_path(path: str, key: str) -> str:
    """File of ``key``'s entry in cache directory ``path`` (this host)."""
    return os.path.join(host_dir(path), f"{key}-v{CACHE_VERSION}.json")


def _decode(fh) -> dict:
    entry = json.load(fh)
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("schedule"), str)
        and isinstance(entry.get("timings"), dict)
        and isinstance(entry.get("checked"), list)
    ):
        raise ValueError("not a schedule entry")
    return entry


def load_entry(path: str, key: str) -> Optional[dict]:
    """This host's entry for ``key``, or None; never raises."""
    entry, bad = read_entry(
        entry_path(path, key), _decode, "kernel autotune entry"
    )
    CACHE_STATS.load_errors += bad
    return entry


def save_entry(path: str, key: str, entry: dict) -> None:
    """Atomically write this host's entry for ``key``."""

    def write(fh) -> None:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")

    atomic_write(entry_path(path, key), "w", write)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of tuning one ``(program, n, nel)`` problem."""

    program: str
    n: int
    nel: int
    lowering: str
    schedule: str
    #: schedule -> best seconds per call (empty when served from cache
    #: with no re-measurement).
    timings: Dict[str, float] = field(default_factory=dict)
    #: schedules that passed the correctness screen.
    checked: Tuple[str, ...] = ()
    from_cache: bool = False


def synth_inputs(prog: Program, nel: int, seed: int) -> List[np.ndarray]:
    """Random float64 inputs matching the program's declared shapes."""
    rng = np.random.default_rng(seed)
    arrays: List[np.ndarray] = []
    for t in prog.inputs:
        shape = tuple(nel if d is None else d for d in t.dims)
        arrays.append(rng.standard_normal(shape))
    return arrays


def _as_tuple(result) -> Tuple[np.ndarray, ...]:
    return result if isinstance(result, tuple) else (result,)


def tune_program(
    prog: Program,
    nel: int,
    lowering: str = DEFAULT_LOWERING,
    cache_path: Optional[str] = None,
    use_cache: bool = True,
    repeats: int = 2,
    trials: int = 3,
    seed: int = 20260807,
    candidates: Optional[Sequence[str]] = None,
) -> TuneResult:
    """Pick the fastest correct schedule for ``prog`` at size ``nel``.

    With ``use_cache`` (the default), a valid persisted entry for this
    host and problem short-circuits the measurement entirely and bumps
    ``CACHE_STATS.hits``; otherwise — including when the entry names a
    schedule that is not a candidate any more (one since removed from
    :data:`~repro.kir.passes.SCHEDULES`) — the candidates are screened,
    timed with :func:`repro.autotune.best_time`, and the winner is
    written back over the entry.
    """
    n = prog.params.get("n", 0)
    path = cache_path if cache_path is not None else default_cache_path()
    names = (
        list(candidates)
        if candidates is not None
        else applicable_schedules(prog)
    )
    if not names:
        raise ValueError(f"{prog.name}: no applicable schedules")
    key = cache_key(prog.name, n, nel, lowering)
    entry = load_entry(path, key) if use_cache else None
    if entry is not None and entry["schedule"] in names:
        CACHE_STATS.hits += 1
        return TuneResult(
            program=prog.name,
            n=n,
            nel=nel,
            lowering=lowering,
            schedule=entry["schedule"],
            timings=dict(entry["timings"]),
            checked=tuple(entry["checked"]),
            from_cache=True,
        )
    CACHE_STATS.misses += 1

    inputs = synth_inputs(prog, nel, seed)
    kernels: Dict[str, LoweredKernel] = {
        name: lower(schedule(prog, name), lowering) for name in names
    }
    # Correctness screen against the first order-preserving candidate
    # (falls back to the first candidate overall).
    ref_name = next(
        (s for s in names if s in ORDER_PRESERVING), names[0]
    )
    reference = _as_tuple(kernels[ref_name].fn(*inputs))
    checked: List[str] = []
    for name in names:
        got = _as_tuple(kernels[name].fn(*inputs))
        ok = all(
            _screen_close(g, r) for g, r in zip(got, reference)
        )
        if ok:
            checked.append(name)
        else:
            warnings.warn(
                f"{prog.name} schedule {name!r} failed the correctness "
                "screen; excluded from tuning",
                RuntimeWarning,
                stacklevel=2,
            )
    if not checked:
        raise RuntimeError(
            f"{prog.name}: every candidate schedule failed the screen"
        )

    timings: Dict[str, float] = {}
    for name in checked:
        fn = kernels[name].fn
        timings[name] = best_time(
            lambda: fn(*inputs), repeats=repeats, trials=trials
        )
    winner = min(timings, key=lambda s: timings[s])
    result = TuneResult(
        program=prog.name,
        n=n,
        nel=nel,
        lowering=lowering,
        schedule=winner,
        timings=timings,
        checked=tuple(checked),
        from_cache=False,
    )
    if use_cache:
        try:
            save_entry(
                path,
                key,
                {
                    "schedule": winner,
                    "timings": timings,
                    "checked": checked,
                },
            )
        except OSError as exc:
            warnings.warn(
                f"could not persist autotune cache to {path!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return result
