"""Diff a benchmark run against committed baselines.

The comparator never re-runs anything: it takes two
:class:`~repro.bench.schema.SuiteResult` documents (current vs
baseline) and classifies every shared metric.

Tolerance policy (per metric ``kind``, overridable per metric via
``rel_tol`` in the baseline/current record):

* ``virtual`` — 1e-6 relative.  The virtual-time model is
  deterministic, so any drift beyond float noise is a genuine change
  in modelled performance and must be acknowledged by refreshing the
  baseline.
* ``count`` — 0 (exact).  Restart counts, rebalance counts, and
  bitwise-parity flags may never drift silently.
* ``wall`` — never gated.  Wall time is host- and load-dependent (the
  same commit swings 2x between phases of one host), so a wall row is a
  recorded measurement, always reported as ``informational``; what a
  wall gate would guard is guarded by deterministic ``count`` rows.

A change beyond tolerance in the *good* direction (``better``) is an
improvement, reported but passing: refresh the baseline with
``--update-baselines`` to ratchet it in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Sequence

from .runner import BASELINE_FILENAMES, read_suites
from .schema import GROUPS, Metric, SuiteResult

#: Default relative tolerance per metric kind (see module docstring).
DEFAULT_REL_TOL: Mapping[str, float] = {
    "virtual": 1e-6,
    "count": 0.0,
    "wall": float("inf"),
}

#: Classification outcomes.
OK = "ok"
IMPROVED = "improved"
REGRESSION = "regression"
INFO = "informational"   # wall metric: reported, not gated
MISSING = "missing"      # baseline scenario/metric absent from current


@dataclass
class MetricDelta:
    """One metric's baseline-vs-current comparison."""

    scenario: str
    metric: str
    kind: str
    baseline: float
    current: float
    #: Relative change *in the bad direction* (positive = worse).
    rel_change: float
    tol: float
    status: str

    def row(self) -> str:
        arrow = {
            OK: " ",
            IMPROVED: "+",
            REGRESSION: "!",
            INFO: "~",
            MISSING: "?",
        }[self.status]
        return (
            f" {arrow} {self.scenario}:{self.metric:<22s} "
            f"{self.baseline:12.6g} -> {self.current:12.6g}  "
            f"(worse by {self.rel_change:+8.2%}, tol {self.tol:g}, "
            f"{self.status})"
        )


@dataclass
class ComparisonReport:
    """All deltas of a comparison, plus bookkeeping."""

    deltas: List[MetricDelta] = field(default_factory=list)
    #: Scenario ids in the baseline with no counterpart in the run.
    missing_scenarios: List[str] = field(default_factory=list)
    #: Scenario ids in the run with no committed baseline yet.
    new_scenarios: List[str] = field(default_factory=list)
    #: Baseline groups with no BENCH file in the baseline directory.
    missing_groups: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == REGRESSION]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == IMPROVED]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def merge(self, other: "ComparisonReport") -> None:
        self.deltas.extend(other.deltas)
        self.missing_scenarios.extend(other.missing_scenarios)
        self.new_scenarios.extend(other.new_scenarios)
        self.missing_groups.extend(other.missing_groups)

    def render(self, verbose: bool = False) -> str:
        lines: List[str] = []
        shown = [
            d for d in self.deltas
            if verbose or d.status in (REGRESSION, IMPROVED, INFO)
        ]
        for d in shown:
            lines.append(d.row())
        for sid in self.missing_scenarios:
            lines.append(f" ? baseline scenario {sid} missing from run")
        for sid in self.new_scenarios:
            lines.append(f" + new scenario {sid} (no baseline yet)")
        for group in self.missing_groups:
            lines.append(
                f" ? no baseline file for group {group!r} "
                f"({BASELINE_FILENAMES[group]})"
            )
        n_reg = len(self.regressions)
        lines.append(
            f"compared {len(self.deltas)} metrics: "
            f"{n_reg} regression{'s' if n_reg != 1 else ''}, "
            f"{len(self.improvements)} improved"
        )
        return "\n".join(lines)


def _tolerance(current: Metric, baseline: Metric) -> float:
    # A per-metric override wins; baseline's takes precedence so the
    # committed policy governs, not the (possibly tampered) run.
    if baseline.rel_tol is not None:
        return baseline.rel_tol
    if current.rel_tol is not None:
        return current.rel_tol
    return DEFAULT_REL_TOL[baseline.kind]


def compare_metric(
    scenario_id: str, current: Metric, baseline: Metric
) -> MetricDelta:
    """Classify one metric pair."""
    tol = _tolerance(current, baseline)
    denom = abs(baseline.value) if baseline.value != 0.0 else 1.0
    # Positive rel_change always means "got worse".
    if baseline.better == "lower":
        rel_change = (current.value - baseline.value) / denom
    else:
        rel_change = (baseline.value - current.value) / denom
    if baseline.kind == "wall":
        status = INFO
    elif rel_change > tol:
        status = REGRESSION
    elif rel_change < -tol:
        status = IMPROVED
    else:
        status = OK
    return MetricDelta(
        scenario=scenario_id,
        metric=current.name,
        kind=baseline.kind,
        baseline=baseline.value,
        current=current.value,
        rel_change=rel_change,
        tol=tol,
        status=status,
    )


def compare_suites(
    current: SuiteResult, baseline: SuiteResult
) -> ComparisonReport:
    """Compare one group's run against its baseline suite."""
    if current.group != baseline.group:
        raise ValueError(
            f"group mismatch: run is {current.group!r}, "
            f"baseline is {baseline.group!r}"
        )
    report = ComparisonReport()
    current_ids = set(current.scenario_ids())
    baseline_ids = set(baseline.scenario_ids())
    report.new_scenarios = sorted(current_ids - baseline_ids)
    report.missing_scenarios = sorted(baseline_ids - current_ids)
    for base_result in baseline.results:
        if base_result.scenario not in current_ids:
            continue
        cur_result = current.scenario(base_result.scenario)
        cur_names = {m.name for m in cur_result.metrics}
        for base_metric in base_result.metrics:
            if base_metric.name not in cur_names:
                report.deltas.append(
                    MetricDelta(
                        scenario=base_result.scenario,
                        metric=base_metric.name,
                        kind=base_metric.kind,
                        baseline=base_metric.value,
                        current=float("nan"),
                        rel_change=float("inf"),
                        tol=_tolerance(base_metric, base_metric),
                        status=REGRESSION,
                    )
                )
                continue
            report.deltas.append(
                compare_metric(
                    base_result.scenario,
                    cur_result.metric(base_metric.name),
                    base_metric,
                )
            )
    return report


def compare_dirs(
    current: Mapping[str, SuiteResult],
    baseline_dir: "str | Path",
    groups: Sequence[str] = GROUPS,
) -> ComparisonReport:
    """Compare a run's suites against the files in ``baseline_dir``.

    A baseline file missing for a group that *was* run is recorded but
    not fatal (warn-and-skip: the group simply has no baseline yet —
    commit one with ``--update-baselines``).
    """
    baseline_dir = Path(baseline_dir)
    baselines = read_suites(baseline_dir, groups=groups)
    report = ComparisonReport()
    for group in groups:
        if group not in current:
            continue
        if group not in baselines:
            report.missing_groups.append(group)
            continue
        report.merge(compare_suites(current[group], baselines[group]))
    return report
