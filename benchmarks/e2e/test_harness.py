"""Tests of the benchmark harness itself (``pytest benchmarks/e2e -q``).

Tier-1's ``testpaths = ["tests"]`` does not collect this file; it
exercises the harness's arithmetic and process handling, not ``repro``.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness as hs  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _child(wall, rss=10.0, error="", slowdown=1.0):
    return hs.Child("t", wall, 0, b"", b"", rss, error=error,
                    slowdown=slowdown)


# -- arithmetic --------------------------------------------------------


def test_over_rounds_reports_min_median_max_n():
    assert hs.over_rounds([3.0, 1.0, 2.0, 10.0]) == {
        "min": 1.0, "median": 2.5, "max": 10.0, "n": 4}


def test_throughput_excludes_setup():
    assert hs.throughput(110, total_s=2.5, setup_s=0.5) == 55.0


def test_faster_half_ignores_the_slow_tail():
    assert hs.faster_half([2.0, 2.1, 2.9, 3.5]) == pytest.approx(2.05)
    assert hs.faster_half([2.2, 2.0, 9.0, 2.1, 2.3, 8.0]) == pytest.approx(2.1)
    assert hs.faster_half([3.0, 2.0, 2.5]) == pytest.approx(2.25)  # >= 2


def test_end_to_end_is_faster_half_of_normalised_good_rounds():
    s = hs.Samples(wl.BY_NAME["xchg_threads"])
    # Walls 3.0/2.4/2.2/3.3 s measured while the host ran 1.5x/1.2x/1.0x/
    # 1.1x slower than nominal: 2.0, 2.0, 2.2 and 3.0 s at nominal speed.
    s.full = [_child(3.0, 40.0, slowdown=1.5), _child(2.4, 41.0, slowdown=1.2),
              _child(2.2, 39.0), _child(3.3, 39.0, slowdown=1.1),
              _child(0.1, 99.0, error="exit status 1")]
    s.setup = [_child(0.4, slowdown=2.0), _child(0.2), _child(0.3)]
    m = hs.end_to_end(s)
    assert m["total_s"]["value"] == pytest.approx(2.0)
    assert m["total_s"]["n"] == 4 and m["total_s"]["wall_min"] == 2.2
    assert m["total_s"]["slowdown"] == pytest.approx(1.15)
    assert m["setup_s"]["value"] == pytest.approx(0.2)
    assert m["throughput_per_s"]["value"] == pytest.approx(110 / 1.8)
    assert m["peak_rss_mb"]["value"] == 41.0  # max, failed child ignored


def test_probe_slowdown_is_mean_chunk_over_nominal(tmp_path):
    cpu = max(hs.pinned_cpu())
    with hs.HostProbes(tmp_path, {cpu}) as probes:
        t0 = time.perf_counter()
        time.sleep(0.3)
        busy, idle = _child(0.3), _child(0.0)
        busy.t0, busy.t1 = t0, time.perf_counter()
        probes.observe(busy, {cpu})
        probes.observe(idle, {cpu})  # empty window: no chunk ended in it
    assert 0.3 < busy.slowdown < 10.0
    assert idle.slowdown == 1.0
    assert busy.norm_s == busy.wall_s / busy.slowdown


def test_cross_round_checks():
    s = hs.Samples(wl.BY_NAME["xchg_procs"])
    s.full = [_child(1.0), _child(1.0)]
    s.setup = [_child(0.1)]
    for c in s.full:
        c.signature = "aa"
    assert hs.cross_round_errors(s) == []
    s.reference = _child(1.0)
    s.reference.signature = "bb"
    assert any("reference" in e for e in hs.cross_round_errors(s))
    s.full[1].signature = "cc"
    assert any("between rounds" in e for e in hs.cross_round_errors(s))


# -- spans -------------------------------------------------------------


def _span(i, start, end, parent=None, layer="x", rank=0):
    return {"id": i, "rank": rank, "name": f"s{i}", "layer": layer,
            "step": 0, "parent": parent, "start": start, "end": end}


def test_self_time_nested_children():
    trace = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, parent=0),
             _span(2, 2.0, 3.0, parent=1), _span(3, 6.0, 8.0, parent=0)]
    own = spans.self_times(trace)
    assert own[(0, 0)] == pytest.approx(5.0)  # 10 - 3 - 2
    assert own[(0, 1)] == pytest.approx(2.0)  # 3 - 1
    assert own[(0, 2)] == pytest.approx(1.0)


def test_self_time_overlapping_children_counted_once():
    trace = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, parent=0),
             _span(2, 3.0, 7.0, parent=0),
             _span(3, 9.0, 12.0, parent=0)]  # runs past the parent
    assert spans.self_times(trace)[(0, 0)] == pytest.approx(3.0)


def test_self_time_is_per_rank_and_sums_by_layer():
    trace = [_span(0, 0.0, 4.0, layer="core"),
             _span(1, 1.0, 3.0, parent=0, layer="gs"),
             _span(0, 0.0, 4.0, layer="core", rank=1)]
    assert spans.layer_self_seconds(trace) == {"core": 6.0, "gs": 2.0}


def test_tracer_links_parents_and_steps():
    tr = spans.Tracer(rank=3)
    with tr.span("timestep", "core", step=7):
        with tr.span("grad", "kernels"):
            pass
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and inner["step"] == 7
    assert outer["parent"] is None and inner["rank"] == 3
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


# -- generated inputs and names ---------------------------------------


def test_campaign_jobs_deterministic_per_seed():
    assert wl.campaign_jobs(7) == wl.campaign_jobs(7)
    assert wl.campaign_jobs(7) != wl.campaign_jobs(8)
    by_name = sorted(j["name"] for j in wl.campaign_jobs(7))
    assert by_name == sorted(j["name"] for j in wl.campaign_jobs(8))


def test_campaign_jobs_mix_and_artifact_keys():
    jobs = wl.campaign_jobs(2015)
    cmt = [j for j in jobs if j["kind"] == "cmtbone"]
    assert (len(cmt), len(jobs) - len(cmt)) == (105, 35)
    keys = {(j["params"]["n"], j["params"]["gs_method"]) for j in cmt}
    assert len(keys) == 12


def test_sod_work_does_not_depend_on_the_seed(tmp_path):
    w = wl.BY_NAME["sod_campaign"]
    specs = set()
    for seed in range(12):
        argv = wl.build_argv(w, seed, tmp_path, False)
        specs.add(argv[argv.index("--fault-spec") + 1])
    assert specs == {f"crash:rank={r},step={wl.SOD_CRASH_STEP}"
                     for r in range(1, wl.SOD_RANKS)}


def test_names_match_the_contract():
    spec = json.loads((hs.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == [w.name for w in wl.WORKLOADS]
    for group in ("workloads", "end_to_end", "per_layer"):
        for item in spec[group]:
            assert NAME.fullmatch(item["name"]), item["name"]
    metric_names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(metric_names)) == len(metric_names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])


# -- process handling --------------------------------------------------


def test_deadline_kills_a_sleeping_child_and_counts_one_failure(tmp_path):
    code = ("import subprocess, sys, time; "
            "subprocess.Popen([sys.executable, '-c', "
            "'import time; time.sleep(60)']); time.sleep(60)")
    t0 = time.perf_counter()
    child = hs.run_child("sleeper", [sys.executable, "-c", code],
                         hs.child_env(tmp_path), hs.pinned_cpu(),
                         deadline_s=0.5)
    assert time.perf_counter() - t0 < 10.0
    assert child.timed_out and not child.ok and "stalled" in child.error
    s = hs.Samples(wl.BY_NAME["kernel_n16"], full=[child, _child(1.0)],
                   setup=[_child(0.1)])
    assert sum(not c.ok for c in s.children()) == 1
    # The grandchild was in the same session and died with the group.
    assert not _sleepers()


def _sleepers() -> list:
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if b"time.sleep(60)" in cmdline.read_bytes():
                found.append(cmdline.parent.name)
        except OSError:
            pass
    return found


def test_pinning_leaves_the_harness_affinity_unchanged(tmp_path):
    before = os.sched_getaffinity(0)
    cpu = hs.pinned_cpu()
    child = hs.run_child(
        "affinity",
        [sys.executable, "-c",
         "import os; print(sorted(os.sched_getaffinity(0)))"],
        hs.child_env(tmp_path), cpu)
    assert child.ok, child.error
    assert json.loads(child.stdout) == sorted(cpu)
    assert os.sched_getaffinity(0) == before


def test_child_environment_is_hermetic(tmp_path):
    env = hs.child_env(tmp_path)
    assert env["REPRO_HOST_ID"] == "bench" and env["PYTHONHASHSEED"] == "0"
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(hs.SRC)
    for key in ("TMPDIR", "REPRO_CACHE_DIR"):
        assert Path(env[key]).is_relative_to(tmp_path)
