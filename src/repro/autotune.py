"""Shared auto-tuning machinery: trial timing and cross-rank reduction.

Two subsystems tune themselves at setup time:

* the gather-scatter library (:mod:`repro.gs.autotune`) times its three
  exchange methods on the *virtual* clock and picks the fastest — the
  paper's Section VI procedure;
* the kernel-IR tier (:mod:`repro.kir.autotune`) times candidate
  lowerings of each tensor-contraction program on the *wall* clock and
  pins the winner in a persistent per-host cache.

Both follow the same measurement discipline — warm up, synchronize,
time a fixed number of trials, reduce — so the mechanics live here once
and each tuner supplies only its clock and its candidate set.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional, Tuple


def host_fingerprint() -> str:
    """Stable identity of the measuring host, hostname included.

    Wall-clock measurements are only comparable on the machine that
    produced them, so both the bench comparator (wall-metric gating)
    and the kernel autotune cache key their data by this string.  The
    hostname leads the fingerprint so per-host caches on a shared
    filesystem never collide once ranks span machines; the
    ``REPRO_HOST_ID`` environment variable overrides it (set per
    simulated host by the sockets backend's loopback launcher, and
    available to pin a stable identity on ephemeral containers).
    """
    import platform
    import socket

    host = os.environ.get("REPRO_HOST_ID")
    if not host:
        host = platform.node() or socket.gethostname()
    return f"{host}/{platform.machine()}/{platform.system()}"


def time_trials(
    fn: Callable[[], object],
    trials: int = 3,
    warmup: int = 1,
    timer: Callable[[], float] = time.perf_counter,
    sync: Optional[Callable[[], object]] = None,
) -> float:
    """Average seconds per call of ``fn`` over ``trials`` timed calls.

    ``warmup`` untimed calls run first (JIT/cache/setup effects), then
    ``sync`` (e.g. a barrier on the virtual clock) separates warmup
    from measurement, then ``trials`` calls are timed as one block.
    ``timer`` is any monotonic seconds source — ``time.perf_counter``
    for wall measurements, ``comm.time`` for virtual ones.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for _ in range(warmup):
        fn()
    if sync is not None:
        sync()
    t0 = timer()
    for _ in range(trials):
        fn()
    return (timer() - t0) / trials


def best_time(
    fn: Callable[[], object],
    repeats: int = 2,
    trials: int = 3,
    warmup: int = 1,
    timer: Callable[[], float] = time.perf_counter,
) -> float:
    """Min-of-``repeats`` of :func:`time_trials` — the noise-robust
    seconds-per-call estimate the kernel tuner ranks candidates by
    (same aggregation the bench runner applies to wall metrics)."""
    return min(
        time_trials(fn, trials=trials, warmup=warmup if r == 0 else 0,
                    timer=timer)
        for r in range(repeats)
    )


def rank_stats(comm, seconds: float, site: str) -> Tuple[float, float, float]:
    """Reduce one rank's per-call seconds across the job.

    Returns ``(avg, mn, mx)`` — the mean / min / max over ranks, the
    three columns of the paper's Fig. 7 table.  Collective.
    """
    from .mpi.datatypes import MAX, MIN, SUM

    avg = comm.allreduce(seconds, op=SUM, site=site) / comm.size
    mn = comm.allreduce(seconds, op=MIN, site=site)
    mx = comm.allreduce(seconds, op=MAX, site=site)
    return avg, mn, mx
