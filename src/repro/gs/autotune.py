"""Setup-time auto-tuning of the gather-scatter exchange method.

Paper, Section VI: "At the beginning of each CMT-nek and CMT-bone
simulation, three gather-scatter methods are evaluated to determine
which one performs the best for the given problem setup and machine."

:func:`choose_method` replays that procedure: time each candidate over
a few trial ``gs_op`` rounds (barrier-separated so the measurements are
clean), reduce per-rank averages/minima/maxima across the job, and
stamp the winner into the handle.  The per-method statistics are kept
— they are exactly the rows of Fig. 7.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..autotune import rank_stats, time_trials
from ..mpi.datatypes import SUM
from .handle import GSHandle
from .ops import METHOD_LABELS, METHODS, gs_op


class MethodTiming(NamedTuple):
    """Cross-rank timing statistics for one exchange method.

    ``avg``/``mn``/``mx`` are seconds per ``gs_op`` invocation: the
    per-rank mean over trials, averaged / min'd / max'd across ranks —
    the same three columns Fig. 7 reports.
    """

    method: str
    avg: float
    mn: float
    mx: float

    @property
    def label(self) -> str:
        return METHOD_LABELS[self.method]

    def row(self) -> str:
        return (
            f"{self.label:<18s} {self.avg:14.9f} {self.mn:14.9f} "
            f"{self.mx:14.9f}"
        )


#: Seed (plus the rank) of the random field each timed exchange combines.
TRIAL_SEED = 1234

#: Trials per method of the setup-time auto-tune that CMT-bone, Nekbone
#: and the solver run (``choose_method``'s own default is 3).
SETUP_TRIALS = 2


def time_method(
    handle: GSHandle, method: str, trials: int = 3
) -> MethodTiming:
    """Time one exchange method over ``trials`` gs_op rounds, after one
    untimed warm-up round.

    Collective.  Virtual time is deterministic, so no repetitions are
    needed for noise — ``trials`` exists to mirror the real procedure
    and to amortize any first-call setup inside a method.
    """
    comm = handle.comm
    rng = np.random.default_rng(TRIAL_SEED + comm.rank)
    u = rng.standard_normal(handle.shape)
    dt = time_trials(
        lambda: gs_op(handle, u, op=SUM, method=method,
                      site=f"gs_autotune:{method}"),
        trials=trials,
        timer=comm.time,
        sync=lambda: comm.barrier(site="gs_autotune"),
    )
    avg, mn, mx = rank_stats(comm, dt, site="gs_autotune")
    return MethodTiming(method=method, avg=avg, mn=mn, mx=mx)


def choose_method(
    handle: GSHandle,
    methods: Optional[Sequence[str]] = None,
    trials: int = 3,
) -> Dict[str, MethodTiming]:
    """Evaluate candidate methods and select the fastest (by avg).

    Returns the full timing table (Fig. 7's data); the winner's name is
    written to ``handle.method`` so subsequent ``gs_op`` calls use it.
    """
    methods = list(methods) if methods is not None else sorted(METHODS)
    timings: Dict[str, MethodTiming] = {}
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown gs method {m!r}")
        timings[m] = time_method(handle, m, trials=trials)
    winner = min(timings.values(), key=lambda t: t.avg).method
    handle.method = winner
    handle.setup_stats["autotune"] = {
        m: (t.avg, t.mn, t.mx) for m, t in timings.items()
    }
    handle.setup_stats["chosen_method"] = winner
    return timings


def timing_table(timings: Dict[str, MethodTiming], title: str = "") -> str:
    """Render a Fig. 7-style table."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"{'All-to-all method':<18s} {'Time (avg) s':>14s} "
        f"{'Time (min) s':>14s} {'Time (max) s':>14s}"
    )
    for m in sorted(timings):
        lines.append(timings[m].row())
    return "\n".join(lines)
