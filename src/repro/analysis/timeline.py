"""Per-rank execution timelines (text Gantt charts).

Section VI argues that modelling MPI_Wait "is hard to do with
analytical models and may require timing-based simulations".  The
virtual-time runtime *is* such a simulation; this module makes its
timing visible: a :class:`TimelineRecorder` collects (region, t0, t1)
intervals per rank, and :func:`render_gantt` draws the classic
trace-viewer picture in plain text — compute bars interleaved with
communication gaps, rank by rank, so wait chains can be eyeballed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..mpi.clock import VirtualClock


class Interval(NamedTuple):
    """One recorded region occurrence on one rank.

    ``span`` marks an overlappable split-phase interval (recorded via
    :meth:`TimelineRecorder.open_span`/``close_span``) that may coexist
    with ordinary region intervals on the same rank.  A named tuple: a
    rank-step records a dozen of them, at half a frozen dataclass's
    construction time and size.
    """

    rank: int
    name: str
    t0: float
    t1: float
    span: bool = False


class TimelineRecorder:
    """Collects top-level region intervals against a virtual clock.

    Only outermost regions are recorded (nested regions belong to the
    call-graph profiler); the timeline answers "what was rank r doing
    at time t", which wants one bar per instant.
    """

    def __init__(self, rank: int, clock: VirtualClock):
        self.rank = rank
        self._clock = clock
        self.intervals: List[Interval] = []
        self._depth = 0

    def region(self, name: str) -> "_Region":
        """Bracket a named region; only outermost ones are recorded."""
        return _Region(self, name)

    # -- split-phase spans ---------------------------------------------------

    def open_span(self, name: str) -> float:
        """Start an *overlappable* span; returns its opening time.

        Unlike :meth:`region`, a span is not a nesting bracket: it
        marks an in-flight split-phase interval (communication posted
        at ``open``, finished at ``close``) that deliberately coexists
        with whatever regions run meanwhile.  Pair with
        :meth:`close_span`; the name is ignored here and repeated at
        close purely for call-site readability.
        """
        return self._clock.now

    def close_span(self, name: str, t0: float) -> None:
        """Record ``[t0, now]`` for ``name`` regardless of nesting depth.

        The resulting interval may overlap region intervals on the same
        rank — :func:`render_gantt` draws such doubly-covered bins in
        uppercase so hidden communication is visible in the chart.
        """
        t1 = self._clock.now
        if t1 > t0:
            self.intervals.append(
                Interval(rank=self.rank, name=name, t0=t0, t1=t1, span=True)
            )


class _Region:
    """One :meth:`TimelineRecorder.region` bracket: a slotted context
    manager, so entering and leaving cost two calls and no generator."""

    __slots__ = ("_rec", "_name", "_t0")

    def __init__(self, rec: TimelineRecorder, name: str):
        self._rec = rec
        self._name = name

    def __enter__(self) -> None:
        rec = self._rec
        self._t0 = rec._clock.now
        rec._depth += 1

    def __exit__(self, *exc) -> None:
        rec = self._rec
        rec._depth -= 1
        if rec._depth == 0:
            t0, t1 = self._t0, rec._clock.now
            if t1 > t0:
                rec.intervals.append(
                    Interval(rank=rec.rank, name=self._name, t0=t0, t1=t1)
                )


def merge_timelines(
    recorders: Sequence[TimelineRecorder],
) -> List[Interval]:
    """All intervals from all ranks, time-ordered."""
    out = [iv for r in recorders for iv in r.intervals]
    out.sort(key=lambda iv: (iv.t0, iv.rank))
    return out


def _symbol_map(intervals: Sequence[Interval]) -> Dict[str, str]:
    """Stable one-character symbols per region name."""
    symbols = "abcdefghijklmnopqrstuvwxyz"
    names: List[str] = []
    for iv in intervals:
        if iv.name not in names:
            names.append(iv.name)
    return {
        name: symbols[i % len(symbols)] for i, name in enumerate(names)
    }


def render_gantt(
    intervals: Sequence[Interval],
    width: int = 72,
    t_range: Optional[Tuple[float, float]] = None,
) -> str:
    """Text Gantt chart: one row per rank, one column per time bin.

    Each cell shows the symbol of the region covering most of that
    bin; ``.`` marks idle/untracked time (usually a blocked wait).
    Bins covered by both a split-phase *span* (an in-flight exchange,
    see :meth:`TimelineRecorder.open_span`) and an ordinary region show
    the dominant symbol in UPPERCASE, so overlapped communication reads
    directly off the chart.
    """
    if not intervals:
        return "(empty timeline)"
    if t_range is None:
        t_lo = min(iv.t0 for iv in intervals)
        t_hi = max(iv.t1 for iv in intervals)
    else:
        t_lo, t_hi = t_range
    span = max(t_hi - t_lo, 1e-30)
    dt = span / width
    ranks = sorted({iv.rank for iv in intervals})
    sym = _symbol_map(intervals)

    rows = []
    for rank in ranks:
        cover: List[Dict[str, float]] = [dict() for _ in range(width)]
        span_cover = [0.0] * width
        region_cover = [0.0] * width
        for iv in intervals:
            if iv.rank != rank:
                continue
            b0 = max(int((iv.t0 - t_lo) / dt), 0)
            b1 = min(int((iv.t1 - t_lo) / dt), width - 1)
            for b in range(b0, b1 + 1):
                bin_lo = t_lo + b * dt
                bin_hi = bin_lo + dt
                overlap = min(iv.t1, bin_hi) - max(iv.t0, bin_lo)
                if overlap > 0:
                    cover[b][iv.name] = cover[b].get(iv.name, 0.0) + overlap
                    if iv.span:
                        span_cover[b] += overlap
                    else:
                        region_cover[b] += overlap
        cells = []
        for b in range(width):
            if not cover[b]:
                cells.append(".")
            else:
                name = max(cover[b], key=cover[b].get)
                cell = sym[name]
                if span_cover[b] > 0 and region_cover[b] > 0:
                    cell = cell.upper()
                cells.append(cell)
        rows.append(f"rank {rank:4d} |{''.join(cells)}|")

    legend = "  ".join(f"{s}={name}" for name, s in sym.items())
    header = (
        f"t = [{t_lo:.3e}, {t_hi:.3e}] s, {width} bins of {dt:.3e} s   "
        "('.' = blocked/idle, UPPERCASE = overlapped regions)"
    )
    return "\n".join([header] + rows + [legend])
