"""Persistent per-host autotuning of generated kernel schedules.

Mirrors the gather-scatter setup-time tuner (``repro.gs.autotune``,
paper Section VI) at the kernel tier: for a concrete ``(program, N,
Nel)`` problem, time every applicable schedule from
:data:`repro.kir.passes.SCHEDULES` and remember the winner.

Because kernel timings depend only on the machine (not the run), the
winner table is persisted to a small JSON file keyed by a host
fingerprint, so the measurement cost is paid once per host::

    {
      "version": 1,
      "hosts": {
        "<node>/<machine>/<system>": {
          "dudr:n10:nel64:numpy": {
            "schedule": "gemm",
            "timings": {"gemm": 1.2e-4, "plane": 9.8e-4, ...},
            "checked": ["gemm", "plane", ...]
          }
        }
      }
    }

The file location is ``$REPRO_CACHE_DIR/kernel-autotune.json`` when
the environment variable is set (tests and CI point it at a temp
directory), else ``~/.cache/repro/kernel-autotune.json``.  The file
follows the :mod:`repro.store` protocol: writes are atomic and
*merged* — the persist path re-reads the file under its advisory lock
and folds the new entry into the current disk state
(:func:`merge_entry`), so two processes tuning different programs
concurrently cannot overwrite each other's entries (last-writer-wins
lost updates) — and a missing, corrupt, or wrong-version file degrades
to an empty cache with a warning rather than an error.
:data:`CACHE_STATS` counts hits, misses, and ``races_merged`` — the
number of persist cycles that found (and kept) a concurrent writer's
entries — so both a warm second run and a survived write race are
observable.

Candidates are screened for correctness before they are timed: each
schedule's output must match the reference schedule to ``allclose``
with ``rtol=1e-10`` (schedules in
:data:`repro.kir.passes.ORDER_PRESERVING` are additionally
bitwise-identical to the reference loops in
``tests/kernel_oracles.py``, which the test suite asserts).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autotune import best_time, host_fingerprint
from ..store import file_lock, load_versioned, save_versioned
from .ir import Program
from .lower import DEFAULT_LOWERING, LoweredKernel, lower
from .passes import ORDER_PRESERVING, applicable_schedules, schedule

CACHE_VERSION = 1
CACHE_FILENAME = "kernel-autotune.json"

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
    #: Persist cycles that found (and preserved) entries written to
    #: disk by a concurrent tuner since this process last read the
    #: file — each count is a lost-update race that merge-under-lock
    #: turned into a merge instead (see :func:`merge_entry`).
    races_merged: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.load_errors = 0
        self.races_merged = 0


CACHE_STATS = CacheStats()


def default_cache_path() -> str:
    """Resolve the autotune cache file path (env-overridable)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if not root:
        root = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.path.join(root, CACHE_FILENAME)


def cache_key(
    program: str, n: int, nel: int, lowering: str = DEFAULT_LOWERING
) -> str:
    return f"{program}:n{n}:nel{nel}:{lowering}"


def load_cache(path: str) -> Dict[str, Dict[str, dict]]:
    """Read the host table; tolerate missing/corrupt/stale files."""
    hosts, bad = load_versioned(
        path, CACHE_VERSION, "hosts", "kernel autotune cache",
        "retuning from scratch",
    )
    CACHE_STATS.load_errors += bad
    return hosts


def merge_entry(
    path: str,
    host: str,
    key: str,
    entry: dict,
    known: Optional[Dict[str, Dict[str, dict]]] = None,
) -> None:
    """Fold one tuned entry into the on-disk cache without losing races.

    A bare load→modify→save between two processes tuning *different*
    programs is a lost-update race: the last writer's ``os.replace``
    discards the other's entry.  This helper re-reads the file under
    its advisory lock (:func:`repro.store.file_lock`) and merges into
    the *current* disk state, so concurrent tuners interleave instead
    of clobbering.

    ``known`` is the caller's earlier snapshot of the file (what it
    believed was on disk before measuring); any key present on disk now
    but absent from ``known`` was written concurrently, and detecting
    one bumps ``CACHE_STATS.races_merged``.
    """
    with file_lock(path):
        hosts = load_cache(path)
        if known is not None:
            for h, entries in hosts.items():
                seen = known.get(h, {})
                if any(k not in seen for k in entries):
                    CACHE_STATS.races_merged += 1
                    break
        hosts.setdefault(host, {})[key] = entry
        save_versioned(path, CACHE_VERSION, "hosts", hosts)


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
    host = host_fingerprint()
    hosts = load_cache(path) if use_cache else {}
    entry = hosts.get(host, {}).get(key)
    if use_cache and isinstance(entry, dict):
        sched = entry.get("schedule")
        if sched in names:
            CACHE_STATS.hits += 1
            timings = entry.get("timings")
            return TuneResult(
                program=prog.name,
                n=n,
                nel=nel,
                lowering=lowering,
                schedule=sched,
                timings=dict(timings) if isinstance(timings, dict) else {},
                checked=tuple(entry.get("checked", ())),
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
            merge_entry(
                path,
                host,
                key,
                {
                    "schedule": winner,
                    "timings": timings,
                    "checked": checked,
                },
                known=hosts,
            )
        except OSError as exc:
            warnings.warn(
                f"could not persist autotune cache to {path!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return result
