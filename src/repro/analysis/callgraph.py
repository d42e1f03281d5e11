"""gprof-style call-graph profiling of the mini-app's compute regions.

Fig. 4 of the paper is a partial gprof call graph of CMT-bone showing
that "the majority of application time is spent in derivative
calculation (``ax_`` routine, for flux divergence)".  gprof needs
compiled binaries; this module gives the simulated mini-app the same
observability: code brackets named regions, the profiler tracks
*virtual* time (so reports are deterministic and platform-modelled),
nesting builds the call graph, and :func:`flat_profile` /
:func:`call_graph` render gprof-like reports.

It is the one region recorder: a :meth:`CallGraphProfiler.phase`
bracket also leaves the per-rank Gantt bar that
:func:`repro.analysis.timeline.render_gantt` draws, read off the same
clock value as its call-graph entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..mpi.clock import VirtualClock
from .timeline import Interval


@dataclass(eq=False, repr=False)
class RegionStats:
    """Aggregate statistics for one named region."""

    name: str
    calls: int = 0
    total: float = 0.0       # inclusive virtual seconds
    child: float = 0.0       # virtual seconds inside nested regions

    @property
    def self_time(self) -> float:
        return self.total - self.child


class CallGraphProfiler:
    """Region-based hierarchical profiler over a virtual clock.

    Usage::

        prof = CallGraphProfiler(comm.clock, comm.rank)
        with prof.region("compute_rhs"):
            with prof.phase("ax_"):
                ...  # derivative kernels

    Region entry/exit reads ``clock.now``; anything that advances the
    clock inside (modelled compute charges, communication waits) is
    attributed to the innermost open region.  A :meth:`phase` is a
    region that also leaves a Gantt bar in :attr:`intervals` when no
    other phase is open around it: the timeline answers "what was rank
    r doing at time t", which wants one bar per instant.
    """

    def __init__(self, clock: VirtualClock, rank: int):
        self._clock = clock
        self.rank = rank
        self.stats: Dict[str, RegionStats] = {}
        #: (parent, child) -> (calls, inclusive seconds)
        self.edges: Dict[Tuple[str, str], Tuple[int, float]] = {}
        #: Outermost phase bars and closed spans, for
        #: :func:`repro.analysis.render_gantt`.
        self.intervals: List[Interval] = []
        self._stack: List[str] = []
        self._phases = 0

    def __getstate__(self) -> dict:
        # A result carries its rank's profiler back in every procs and
        # sockets exit record and every service pipe reply; the bars
        # (a dozen per step) would multiply that record's size, so
        # they stay behind.  A caller that draws them ships them itself.
        return {**self.__dict__, "intervals": []}

    def region(self, name: str) -> "_Region":
        """Bracket a named region; nests to build the call graph."""
        return _Region(self, name, False)

    def phase(self, name: str) -> "_Region":
        """A :meth:`region` that is also a Gantt bar when outermost."""
        return _Region(self, name, True)

    # -- split-phase spans ---------------------------------------------------

    def open_span(self) -> float:
        """Start an *overlappable* span; returns its opening time.

        Unlike :meth:`phase`, a span is not a nesting bracket: it marks
        an in-flight split-phase interval (communication posted at
        ``open``, finished at ``close``) that deliberately coexists with
        whatever phases run meanwhile.  Pair with :meth:`close_span`.
        """
        return self._clock.now

    def close_span(self, name: str, t0: float) -> None:
        """Record ``[t0, now]`` for ``name`` regardless of nesting depth.

        The resulting interval may overlap phase intervals on the same
        rank — :func:`render_gantt` draws such doubly-covered bins in
        uppercase so hidden communication is visible in the chart.
        """
        t1 = self._clock.now
        if t1 > t0:
            self.intervals.append(Interval(self.rank, name, t0, t1, True))


class _Region:
    """One :meth:`CallGraphProfiler.region` or ``phase`` bracket: a
    slotted context manager, so entering and leaving cost two calls and
    no generator."""

    __slots__ = ("_prof", "_name", "_phase", "_t0")

    def __init__(self, prof: CallGraphProfiler, name: str, phase: bool):
        self._prof = prof
        self._name = name
        self._phase = phase

    def __enter__(self) -> None:
        prof = self._prof
        self._t0 = prof._clock.now
        prof._stack.append(self._name)
        if self._phase:
            prof._phases += 1

    def __exit__(self, *exc) -> None:
        prof, name, t0 = self._prof, self._name, self._t0
        prof._stack.pop()
        t1 = prof._clock.now
        dt = t1 - t0
        st = prof.stats.get(name)
        if st is None:
            st = RegionStats(name=name)
            prof.stats[name] = st
        st.calls += 1
        st.total += dt
        if prof._stack:
            parent = prof._stack[-1]
            prof.stats.setdefault(
                parent, RegionStats(name=parent)
            ).child += dt
            calls, secs = prof.edges.get((parent, name), (0, 0.0))
            prof.edges[(parent, name)] = (calls + 1, secs + dt)
        if self._phase:
            prof._phases -= 1
            if prof._phases == 0 and t1 > t0:
                prof.intervals.append(Interval(prof.rank, name, t0, t1))


def merge_profiles(profiles: List[CallGraphProfiler]) -> Dict[str, RegionStats]:
    """Merge per-rank region stats (sums counts and times)."""
    merged: Dict[str, RegionStats] = {}
    for p in profiles:
        for name, st in p.stats.items():
            m = merged.get(name)
            if m is None:
                m = RegionStats(name=name)
                merged[name] = m
            m.calls += st.calls
            m.total += st.total
            m.child += st.child
    return merged


def flat_profile(stats: Dict[str, RegionStats]) -> str:
    """gprof-style flat profile: % time, self seconds, calls, name."""
    rows = sorted(stats.values(), key=lambda s: s.self_time, reverse=True)
    total = sum(s.self_time for s in rows) or 1.0
    lines = [
        f"{'% time':>7s} {'self s':>12s} {'total s':>12s} {'calls':>10s}  name"
    ]
    for s in rows:
        lines.append(
            f"{100.0 * s.self_time / total:7.2f} {s.self_time:12.6f} "
            f"{s.total:12.6f} {s.calls:10d}  {s.name}"
        )
    return "\n".join(lines)


def call_graph(
    profiles_or_edges,
) -> str:
    """Render the parent -> child call-graph edges (Fig. 4 style)."""
    if isinstance(profiles_or_edges, list):
        edges: Dict[Tuple[str, str], Tuple[int, float]] = {}
        for p in profiles_or_edges:
            for key, (c, t) in p.edges.items():
                c0, t0 = edges.get(key, (0, 0.0))
                edges[key] = (c0 + c, t0 + t)
    else:
        edges = profiles_or_edges
    by_parent: Dict[str, List[Tuple[str, int, float]]] = {}
    for (parent, child), (calls, secs) in edges.items():
        by_parent.setdefault(parent, []).append((child, calls, secs))
    lines = []
    for parent in sorted(by_parent):
        lines.append(parent)
        children = sorted(by_parent[parent], key=lambda x: x[2], reverse=True)
        for child, calls, secs in children:
            lines.append(
                f"    -> {child:<24s} calls={calls:<8d} incl={secs:.6f}s"
            )
    return "\n".join(lines)
