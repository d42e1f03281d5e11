"""The traced run: per-layer metrics and ``trace.json``.

A separate run from the end-to-end one and never used for an
end-to-end number.  The harness spawns the measurement groups of
``layers.py`` as pinned children (the ``service`` group gets every CPU
for its two workers), times interpreter start-up itself, merges the
groups' metrics and spans, and writes the spans out once at the end.
The per-layer metrics are defined on fixed shapes (see README.md), so
the run is the same whichever ``--workload`` it is asked for; only the
seed (the campaign's job order) reaches it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List

import harness as hs
from spans import write_trace

#: A measurement group runs many calls; give it more than one child's
#: deadline before it counts as stalled.
GROUP_DEADLINE_S = 120.0
GROUPS = ("replay", "layers", "service")
IMPORT_REPS = 5


def _import_ms(tmp: Path, children: List[hs.Child]) -> float:
    """Fresh interpreter ``import repro.cli`` minus an empty interpreter."""
    best = {}
    for code in ("import repro.cli", "pass"):
        probes = [
            hs.run_child(f"python -c {code!r}",
                         [sys.executable, "-c", code],
                         hs.child_env(tmp), hs.pinned_cpu())
            for _ in range(IMPORT_REPS)
        ]
        children += probes
        best[code] = min(c.wall_s for c in probes)
    return (best["import repro.cli"] - best["pass"]) * 1e3


def run(seed: int, tmp: Path, trace_path: Path) -> dict:
    metrics: Dict[str, dict] = {}
    checks: Dict[str, bool] = {}
    traces: Dict[str, list] = {}
    children: List[hs.Child] = []
    for group in GROUPS:
        gdir = tmp / f"traced-{group}"
        gdir.mkdir()
        cpus = (os.sched_getaffinity(0) if group == "service"
                else hs.pinned_cpu())
        child = hs.run_child(
            f"traced/{group}",
            [sys.executable, str(hs.HERE / "layers.py"), group, str(gdir),
             str(seed)],
            hs.child_env(gdir), cpus, deadline_s=GROUP_DEADLINE_S,
        )
        children.append(child)
        notes = [ln for ln in child.stderr.decode("utf-8", "replace")
                 .splitlines() if ln.startswith("# ")]
        print(f"{group}: {child.wall_s:.1f} s")
        for note in notes:
            print(f"  {note[2:]}")
        if not child.ok:
            print(f"  FAILED {child.label}: {child.error}")
            continue
        doc = json.loads(child.stdout.splitlines()[-1])
        for name, (value, unit) in doc["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
        checks.update(doc["checks"])
        traces.update(doc["traces"])
    metrics["cli.import_ms"] = {"value": _import_ms(tmp, children),
                                "unit": "ms"}
    write_trace(trace_path, traces)

    print()
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:<44s} {m['value']:14.4f} {m['unit']}")
    nspans = sum(len(t) for t in traces.values())
    print(f"\nwrote {trace_path} ({nspans} spans in {len(traces)} traces)")
    for what, passed in checks.items():
        print(f"{'ok    ' if passed else 'CHECK FAILED'} {what}")
    wanted = {m["name"] for m in json.loads(
        (hs.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = sorted(wanted - set(metrics))
    if missing:
        print(f"CHECK FAILED per-layer metrics missing: {missing}")
    failed = sum(not c.ok for c in children)
    return {
        "flat_metrics": {k: metrics[k] for k in sorted(metrics)},
        "attempted": len(children), "failed": failed,
        "correct": failed == 0 and all(checks.values()) and not missing,
    }
