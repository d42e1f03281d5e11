"""mpiP-style report rendering (Figs. 8, 9, 10 of the paper).

The raw data comes from :class:`repro.mpi.profiler.JobProfile`; this
module turns it into the three views the paper plots:

* :func:`mpi_fraction_report` — "% time spent in MPI calls across all
  MPI processes", one value per rank (Fig. 8);
* :func:`top_calls_report` — "Time spent in the 20 most expensive MPI
  calls" by (operation, call site) (Fig. 9);
* :func:`message_size_report` — "Total and average size of messages
  sent in the most frequently called MPI calls" (Fig. 10).
"""

from __future__ import annotations

from typing import Tuple

from ..mpi.profiler import JobProfile
from .tables import render_histogram, render_table


def mpi_fraction_report(profile: JobProfile) -> str:
    """Per-rank percentage of virtual time inside MPI (Fig. 8)."""
    fractions = profile.mpi_fractions()
    header = "% time spent in MPI calls across all MPI processes"
    labels = [f"rank {r:4d}" for r in range(len(fractions))]
    body = render_histogram(labels, [100.0 * f for f in fractions], unit="%")
    agg = summarize_fractions(profile)
    tail = (
        f"mean={agg[0]:.2f}%  min={agg[1]:.2f}%  max={agg[2]:.2f}%  "
        f"(imbalance max/mean = {agg[3]:.2f})"
    )
    # The other side of the same coin: waiting ranks are the *victims*
    # of imbalance, the compute spread names the culprits.  Reporting
    # both shows load balancing shrinking the cause and the symptom.
    cmean, cmin, cmax, cimb = summarize_compute(profile)
    tail += (
        f"\ncompute (non-MPI) per rank: mean={cmean:.6g}s  "
        f"min={cmin:.6g}s  max={cmax:.6g}s  "
        f"(imbalance max/mean = {cimb:.2f})"
    )
    return f"{header}\n{body}\n{tail}"


def summarize_fractions(
    profile: JobProfile,
) -> Tuple[float, float, float, float]:
    """(mean %, min %, max %, max/mean imbalance) of per-rank MPI time."""
    return summarize_values([100.0 * f for f in profile.mpi_fractions()])


def summarize_values(values) -> Tuple[float, float, float, float]:
    """(mean, min, max, max/mean imbalance) of any per-rank series.

    Shared by the executed-profile summaries above and the *modeled*
    per-rank series the virtual scale-out engine produces
    (:mod:`repro.vscale`), which have no :class:`JobProfile` behind
    them — only arrays of modeled seconds or percentages.
    """
    fr = [float(v) for v in values]
    mean = sum(fr) / len(fr) if fr else 0.0
    mx = max(fr, default=0.0)
    mn = min(fr, default=0.0)
    return mean, mn, mx, (mx / mean if mean else 0.0)


def modeled_fraction_report(
    fractions_pct, title: str = "% time in MPI (modeled)"
) -> str:
    """mpiP Fig. 8-style summary for a *modeled* per-rank MPI series.

    At 10^4-10^5 virtual ranks a per-rank histogram is unreadable, so
    the modeled report shows the distribution by percentile instead —
    same headline aggregates as :func:`summarize_fractions`.
    """
    fr = [float(v) for v in fractions_pct]
    if not fr:
        return f"{title}\n(no ranks)"
    fr.sort()
    nr = len(fr)

    def pct(p: float) -> float:
        return fr[min(nr - 1, int(p / 100.0 * nr))]

    rows = [
        ("min", fr[0]),
        ("p25", pct(25.0)),
        ("p50", pct(50.0)),
        ("p75", pct(75.0)),
        ("p95", pct(95.0)),
        ("max", fr[-1]),
    ]
    body = render_table(
        ["percentile", "MPI %"], [(k, round(v, 3)) for k, v in rows]
    )
    mean, mn, mx, imb = summarize_values(fr)
    tail = (
        f"ranks={nr}  mean={mean:.2f}%  min={mn:.2f}%  max={mx:.2f}%  "
        f"(imbalance max/mean = {imb:.2f})"
    )
    return f"{title}\n{body}\n{tail}"


def summarize_compute(
    profile: JobProfile,
) -> Tuple[float, float, float, float]:
    """(mean s, min s, max s, max/mean imbalance) of per-rank *compute*.

    Compute here is everything outside MPI: per-rank app time minus
    MPI time from the profile's rank totals.  This is the quantity
    dynamic load balancing acts on directly — before/after-LB reports
    should show this spread shrinking along with the MPI fractions.
    """
    comp = [
        max(app - mpi, 0.0)
        for app, mpi in profile.rank_totals.values()
    ]
    if not comp:
        return 0.0, 0.0, 0.0, 0.0
    mean = sum(comp) / len(comp)
    mx, mn = max(comp), min(comp)
    return mean, mn, mx, (mx / mean if mean else 0.0)


def op_share(profile: JobProfile, op: str) -> float:
    """One operation's share of total MPI time (e.g. ``"MPI_Wait"``)."""
    by_op = profile.by_op()
    total = sum(by_op.values())
    return by_op.get(op, 0.0) / total if total else 0.0


def top_calls_report(profile: JobProfile, n: int = 20) -> str:
    """The n most expensive (operation, site) pairs (Fig. 9)."""
    rows = profile.top_sites(n)
    table = render_table(
        ["MPI call", "site", "count", "time (s)", "app %", "MPI %"],
        [
            (r.op, r.site, r.count, r.vtime, r.app_pct, r.mpi_pct)
            for r in rows
        ],
    )
    return f"Time spent in the {n} most expensive MPI calls\n{table}"


def message_size_report(profile: JobProfile, n: int = 20) -> str:
    """Total and average message sizes of frequent calls (Fig. 10)."""
    rows = profile.message_size_rows(n)
    table = render_table(
        ["MPI call", "site", "count", "total bytes", "avg bytes"],
        [
            (r.op, r.site, r.count, r.bytes_total, round(r.bytes_avg, 1))
            for r in rows
        ],
    )
    return (
        "Total and average size of messages sent in the most frequently "
        f"called MPI calls\n{table}"
    )


def wait_dominance(profile: JobProfile) -> Tuple[str, float]:
    """(dominant op name, its share of total MPI time).

    The paper's Fig. 9 observation — "a large amount of time is spent
    in MPI_Wait for synchronization" — is checked against this.
    """
    by_op = profile.by_op()
    if not by_op:
        return "", 0.0
    total = sum(by_op.values()) or 1.0
    op, t = max(by_op.items(), key=lambda kv: kv[1])
    return op, t / total


def fault_report(profile: JobProfile) -> str:
    """Fault-injection pseudo-callsites (crashes, retries, checkpoint IO).

    The fault layer records informational rows under the ``FAULT_*``
    and ``IO_*`` pseudo-ops: ``FAULT_Crash`` marks an injected rank
    kill, ``FAULT_Retry`` aggregates retransmission penalties per lossy
    link, ``IO_Checkpoint`` the modelled checkpoint read/write time.
    They render like any other mpiP call site but never contribute to
    the MPI time fraction (their cost already lives inside the
    enclosing operations).
    """
    rows = [
        r for r in profile.aggregates()
        if r.op.startswith("FAULT_") or r.op.startswith("IO_")
    ]
    if not rows:
        return "Fault events\n(no fault or checkpoint events recorded)"
    table = render_table(
        ["event", "site", "count", "time (s)", "bytes"],
        [(r.op, r.site, r.count, r.vtime, r.bytes_total) for r in rows],
    )
    return f"Fault events (injected faults, retries, checkpoint IO)\n{table}"


def lb_report(profile: JobProfile) -> str:
    """Load-balancing call sites and pseudo-events.

    The LB subsystem's traffic is attributed to dedicated mpiP call
    sites — ``LB_monitor`` (cost allgathers), ``LB_migrate`` (element
    envelopes over the crystal router), ``LB_gs_rebuild`` (handle
    re-discovery) — plus informational pseudo-ops: ``LB_Migrate``
    (per-event migration cost/volume) and ``LB_Rebuild``.
    Informational rows never inflate the MPI fraction.
    """
    rows = [
        r for r in profile.aggregates()
        if r.site.startswith("LB_") or r.op.startswith("LB_")
    ]
    if not rows:
        return "Load balancing\n(no load-balancing activity recorded)"
    table = render_table(
        ["op", "site", "count", "time (s)", "bytes"],
        [(r.op, r.site, r.count, r.vtime, r.bytes_total) for r in rows],
    )
    return f"Load balancing (monitoring, migration, rebuild)\n{table}"


def full_report(profile: JobProfile, top_n: int = 20) -> str:
    """All three mpiP-style sections in one string."""
    return "\n\n".join(
        [
            mpi_fraction_report(profile),
            top_calls_report(profile, top_n),
            message_size_report(profile, top_n),
        ]
    )

