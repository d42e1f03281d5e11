#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                      # six workloads, 6 rounds
    python3 benchmarks/e2e/run.py --trace              # per-layer run
    python3 benchmarks/e2e/run.py --selfcheck          # two runs, compared
    python3 benchmarks/e2e/run.py --workload xchg_threads --seed 7 \
        --seconds 20 --trace 0                         # the driver's form

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is non-zero
when any child failed, stalled or produced wrong output.  See
README.md for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness as hs  # noqa: E402
import workloads as wl  # noqa: E402


def _bounds() -> Dict[str, float]:
    """Regression bounds of the end-to-end metrics (BENCHMARK.json)."""
    spec = json.loads((hs.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def measure(workloads: Sequence[wl.Workload], seed: int, tmp: Path,
            seconds: Optional[float]) -> dict:
    """One untraced run: rounds, checks, end-to-end metrics."""
    samples = hs.run_rounds(workloads, seed, tmp, seconds)
    attempted = failed = 0
    metrics: Dict[str, Dict[str, dict]] = {}
    problems = []
    for name, s in samples.items():
        children = s.children()
        attempted += len(children)
        failed += sum(not c.ok for c in children)
        problems += [f"{name}: {e}" for e in s.errors]
        metrics[name] = hs.end_to_end(s)
        if not metrics[name]:
            problems.append(f"{name}: no good round")
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
    }


def print_end_to_end(result: dict) -> None:
    for name, metrics in result["metrics"].items():
        print(f"\n{name}")
        for metric, m in metrics.items():
            extra = ""
            if "n" in m:
                extra = (f"   (min {m['min']:.4f}  median {m['median']:.4f}"
                         f"  max {m['max']:.4f}  n={m['n']})")
            if "slowdown" in m:
                extra += (f"\n{'':35s}   (raw wall: min {m['wall_min']:.4f}"
                          f"  median {m['wall_median']:.4f}  max "
                          f"{m['wall_max']:.4f}; host slowdown "
                          f"{m['slowdown']:.2f}x)")
            print(f"  {metric:<18s} {m['value']:12.4f} {m['unit']:<4s}{extra}")
    print(f"\nfailed_frac = {result['failed']}/{result['attempted']}")
    for p in result["problems"]:
        print(f"CHECK FAILED {p}")


def selfcheck(a: dict, b: dict) -> bool:
    """Print both runs side by side; True when every pair is in bound."""
    bounds = _bounds()
    ok = a["correct"] and b["correct"]
    print(f"\n{'workload':<18s}{'metric':<18s}{'run 1':>12s}{'run 2':>12s}"
          f"{'rel diff':>10s}{'bound':>8s}")
    for name in a["metrics"]:
        for metric, m1 in a["metrics"][name].items():
            v1 = m1["value"]
            v2 = b["metrics"][name].get(metric, {}).get("value")
            if v2 is None:
                ok = False
                continue
            rel = abs(v2 - v1) / min(v1, v2)
            bound = bounds[metric]
            flag = "" if rel <= bound else "  OUT OF BOUND"
            ok = ok and rel <= bound
            print(f"{name:<18s}{metric:<18s}{v1:12.4f}{v2:12.4f}"
                  f"{rel:10.2%}{bound:8.0%}{flag}")
    print("failed_frac: run 1 "
          f"{a['failed']}/{a['attempted']}, run 2 "
          f"{b['failed']}/{b['attempted']}")
    return ok


def final_line(result: dict, single: Optional[str]) -> str:
    """The contract's last stdout line."""
    if "flat_metrics" in result:
        flat = result["flat_metrics"]
    elif single:
        flat = result["metrics"][single]
    else:
        flat = {f"{w}.{k}": m for w, ms in result["metrics"].items()
                for k, m in ms.items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in flat.items()},
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.BY_NAME),
                    help="run one workload (default: all six, interleaved)")
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--seconds", type=float, default=None,
                    help="time budget of the measuring loop (default: "
                         f"{hs.ROUNDS} rounds however long they take)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: the traced per-layer run instead of the "
                         "end-to-end run")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the untraced benchmark twice and compare "
                         "every metric against its bound")
    args = ap.parse_args(argv)

    if not (hs.SRC / "repro" / "cli.py").is_file():
        print(f"run.py: no program to measure: {hs.SRC / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C so the temp dir is always removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = ([wl.BY_NAME[args.workload]] if args.workload
                 else list(wl.WORKLOADS))
    out_dir = hs.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        hs.warm_bytecode(tmp)
        if args.trace:
            import traced

            result = traced.run(args.seed, tmp, out_dir / "trace.json")
            ok = result["correct"]
        elif args.selfcheck:
            first = measure(workloads, args.seed, tmp, args.seconds)
            print_end_to_end(first)
            second = measure(workloads, args.seed, tmp, args.seconds)
            print_end_to_end(second)
            ok = selfcheck(first, second)
            result = second
        else:
            result = measure(workloads, args.seed, tmp, args.seconds)
            print_end_to_end(result)
            ok = result["correct"]
        print(final_line(result, args.workload))
        return 0 if ok else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
