"""mpiP-style per-rank, per-callsite MPI profiling.

The paper instruments CMT-bone with mpiP [Vetter & Chambreau 2004] and
reports (Figs. 8-10):

* the percentage of total execution time each rank spends in MPI,
* the twenty most expensive MPI call *sites* aggregated over ranks, and
* the total and average message size per call site.

This module reproduces that bookkeeping inside the simulated runtime.
Every communicator operation records ``(op name, call site)`` together
with the virtual seconds spent and bytes moved.  Each rank writes to its
own :class:`RankProfile` without locking; the runtime merges them into
a :class:`JobProfile` after the job completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


@dataclass(eq=False, repr=False)
class CallRecord:
    """Aggregate statistics for one (op, site) pair on one rank."""

    op: str
    site: str
    count: int = 0
    vtime: float = 0.0
    bytes_total: int = 0
    vtime_max: float = 0.0

    @property
    def bytes_avg(self) -> float:
        return self.bytes_total / self.count if self.count else 0.0


class RankProfile:
    """MPI profile for a single rank (no locking: single-writer)."""

    def __init__(self, rank: int):
        self.rank = rank
        self.records: Dict[Tuple[str, str], CallRecord] = {}
        self.mpi_time = 0.0

    def record(
        self,
        op: str,
        site: str,
        vtime: float,
        nbytes: int,
        informational: bool = False,
    ) -> None:
        """Add one call to the ``(op, site)`` aggregate.

        ``informational=True`` rows (the ``FAULT_*`` pseudo-ops emitted
        by :mod:`repro.faults`) appear in reports but do not accumulate
        into ``mpi_time`` — their cost is already inside the enclosing
        operation's clock delta, so counting them again would inflate
        the per-rank MPI fraction.
        """
        self.add(
            self.records.get((op, site)) or CallRecord(op=op, site=site),
            vtime, nbytes, informational=informational,
        )

    def rows(self, site: str, ops: Sequence[str]) -> List[CallRecord]:
        """The ``(op, site)`` row of every op in ``ops``, for a caller
        that books many calls through :meth:`add`.

        A row not yet in ``records`` is returned detached and enters
        ``records`` at its first :meth:`add`, so rows appear in the
        order of their first call, exactly as through :meth:`record`.
        The rows stay valid while no :meth:`record` of the same keys
        intervenes: resolve them per operation, not once per job.
        """
        get = self.records.get
        return [get((op, site)) or CallRecord(op=op, site=site) for op in ops]

    def add(
        self, rec: CallRecord, vtime: float, nbytes: int, calls: int = 1,
        informational: bool = False,
    ) -> None:
        """Book ``calls`` calls on ``rec`` that took ``vtime`` and moved
        ``nbytes`` in all (``informational`` as in :meth:`record`);
        ``vtime_max`` sees them as one, so batch only calls that cost
        nothing (posted receives)."""
        if not rec.count:
            self.records[(rec.op, rec.site)] = rec
        rec.count += calls
        rec.vtime += vtime
        rec.bytes_total += nbytes
        if vtime > rec.vtime_max:
            rec.vtime_max = vtime
        if not informational:
            self.mpi_time += vtime


class SiteAggregate(NamedTuple):
    """One row of the mpiP 'Aggregate Time of Callsites' report."""

    op: str
    site: str
    count: int
    vtime: float
    vtime_max: float
    bytes_total: int
    bytes_avg: float
    app_pct: float
    mpi_pct: float


@dataclass(eq=False, repr=False)
class JobProfile:
    """Merged MPI profile for the whole job.

    ``rank_totals`` maps rank -> (app virtual time, mpi virtual time)
    and backs the Fig. 8 per-rank MPI-fraction plot; ``aggregates()``
    backs Figs. 9 and 10.
    """

    nranks: int
    rank_totals: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    rank_profiles: List[RankProfile] = field(default_factory=list)

    @property
    def app_time(self) -> float:
        """Total virtual app time summed over ranks."""
        return sum(t for t, _ in self.rank_totals.values())

    @property
    def mpi_time(self) -> float:
        """Total virtual MPI time summed over ranks."""
        return sum(m for _, m in self.rank_totals.values())

    def mpi_fraction(self, rank: int) -> float:
        """Fraction of rank's virtual time spent inside MPI calls."""
        app, mpi = self.rank_totals[rank]
        return mpi / app if app > 0 else 0.0

    def mpi_fractions(self) -> List[float]:
        """Per-rank MPI fractions in rank order (Fig. 8 series)."""
        return [self.mpi_fraction(r) for r in sorted(self.rank_totals)]

    def aggregates(self) -> List[SiteAggregate]:
        """Merge per-rank records by (op, site); sort by total time."""
        merged: Dict[Tuple[str, str], CallRecord] = {}
        for rp in self.rank_profiles:
            for key, rec in rp.records.items():
                agg = merged.get(key)
                if agg is None:
                    agg = CallRecord(op=rec.op, site=rec.site)
                    merged[key] = agg
                agg.count += rec.count
                agg.vtime += rec.vtime
                agg.bytes_total += rec.bytes_total
                agg.vtime_max = max(agg.vtime_max, rec.vtime_max)
        app = self.app_time or 1.0
        mpi = self.mpi_time or 1.0
        rows = [
            SiteAggregate(
                op=rec.op,
                site=rec.site,
                count=rec.count,
                vtime=rec.vtime,
                vtime_max=rec.vtime_max,
                bytes_total=rec.bytes_total,
                bytes_avg=rec.bytes_avg,
                app_pct=100.0 * rec.vtime / app,
                mpi_pct=100.0 * rec.vtime / mpi,
            )
            for rec in merged.values()
        ]
        rows.sort(key=lambda r: r.vtime, reverse=True)
        return rows

    def top_sites(self, n: int = 20) -> List[SiteAggregate]:
        """The ``n`` most expensive call sites (Fig. 9)."""
        return self.aggregates()[:n]

    def by_op(self) -> Dict[str, float]:
        """Total virtual time per MPI operation name."""
        out: Dict[str, float] = {}
        for row in self.aggregates():
            out[row.op] = out.get(row.op, 0.0) + row.vtime
        return out

    def message_size_rows(
        self, n: int = 20, ops: Optional[Iterable[str]] = None
    ) -> List[SiteAggregate]:
        """Rows for the message-size report (Fig. 10).

        Sorted by call count (the paper plots the *most frequently
        called* sites); collective/wait rows with zero bytes are
        dropped.
        """
        rows = [r for r in self.aggregates() if r.bytes_total > 0]
        if ops is not None:
            allow = set(ops)
            rows = [r for r in rows if r.op in allow]
        rows.sort(key=lambda r: r.count, reverse=True)
        return rows[:n]
