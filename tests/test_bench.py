"""repro.bench — schema round-trip, runner contracts, comparator, CLI.

The perf gate is only trustworthy if its own machinery is tested: a
comparator that never fires, a runner that silently averages away
nondeterminism, or a schema that drops fields would all make the CI
job green while measuring nothing.
"""

import json

import pytest

from repro.bench import (
    BASELINE_FILENAMES,
    GROUPS,
    Metric,
    RunOptions,
    ScenarioResult,
    SuiteResult,
    compare_dirs,
    compare_suites,
    get_scenario,
    run_scenario,
    run_suites,
    select_scenarios,
    write_suites,
)
from repro.bench.compare import IMPROVED, INFO, OK, REGRESSION
from repro.bench.runner import BenchRunError, host_fingerprint
from repro.bench.scenarios import Scenario
from repro.bench.schema import SCHEMA_VERSION, BenchSchemaError
from repro.cli import main as cli_main


def _suite(metrics, scenario="solver/test", group="solver", meta=None):
    return SuiteResult(
        group=group,
        meta=meta or {},
        results=[
            ScenarioResult(
                scenario=scenario,
                group=group,
                params={"n": 5},
                repeats=2,
                metrics=metrics,
            )
        ],
    )


# -- schema ---------------------------------------------------------------


class TestSchema:
    def test_round_trip(self, tmp_path):
        suite = _suite(
            [
                Metric("wall_s", 0.25, kind="wall", stats={"mean": 0.3}),
                Metric("vtime_s", 1.5e-3, kind="virtual"),
                Metric("restarts", 1.0, kind="count", unit="restarts"),
                Metric(
                    "speedup_x",
                    2.0,
                    kind="wall",
                    unit="x",
                    better="higher",
                    rel_tol=0.5,
                ),
            ],
            meta={"host": {"fingerprint": "abc"}},
        )
        path = suite.write(tmp_path / "BENCH_solver.json")
        back = SuiteResult.read(path)
        assert back.to_json() == suite.to_json()
        assert back.schema_version == SCHEMA_VERSION
        m = back.scenario("solver/test").metric("speedup_x")
        assert m.better == "higher" and m.rel_tol == 0.5
        assert back.scenario("solver/test").metric("wall_s").stats == {
            "mean": 0.3
        }

    def test_json_is_versioned(self, tmp_path):
        suite = _suite([Metric("x", 1.0)])
        doc = json.loads(suite.dumps())
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_unknown_version_rejected(self):
        doc = _suite([Metric("x", 1.0)]).to_json()
        doc["schema_version"] = 999
        with pytest.raises(BenchSchemaError, match="schema_version"):
            SuiteResult.from_json(doc)

    def test_bad_kind_rejected(self):
        with pytest.raises(BenchSchemaError, match="kind"):
            Metric("x", 1.0, kind="cpu")

    def test_bad_better_rejected(self):
        with pytest.raises(BenchSchemaError, match="better"):
            Metric("x", 1.0, better="sideways")

    def test_bad_group_rejected(self):
        with pytest.raises(BenchSchemaError, match="group"):
            SuiteResult(group="misc")

    def test_missing_key_rejected(self):
        with pytest.raises(BenchSchemaError, match="value"):
            Metric.from_json({"name": "x"})

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "BENCH_solver.json"
        p.write_text("not json {")
        with pytest.raises(BenchSchemaError, match="JSON"):
            SuiteResult.read(p)


# -- runner ---------------------------------------------------------------


def _scenario(fn, repeats=2):
    return Scenario(
        id="solver/fake",
        group="solver",
        fn=fn,
        repeats=repeats,
        params={"p": 1},
    )


class TestRunner:
    def test_wall_metrics_aggregate_over_repeats(self):
        values = iter([0.5, 0.2, 0.3])
        s = _scenario(
            lambda: [Metric("wall_s", next(values), kind="wall")],
            repeats=3,
        )
        result = run_scenario(s)
        m = result.metric("wall_s")
        assert m.value == 0.2  # min over repeats for better="lower"
        assert m.stats["max"] == 0.5
        assert m.stats["repeats"] == 3.0
        assert result.repeats == 3

    def test_virtual_metrics_must_be_deterministic(self):
        s = _scenario(lambda: [Metric("vtime_s", 1.25, kind="virtual")])
        assert run_scenario(s).metric("vtime_s").value == 1.25

    def test_nondeterministic_virtual_metric_raises(self):
        values = iter([1.0, 1.0000001])
        s = _scenario(
            lambda: [Metric("vtime_s", next(values), kind="virtual")]
        )
        with pytest.raises(BenchRunError, match="not .*deterministic"):
            run_scenario(s)

    def test_registry_scenario_is_deterministic(self):
        # A real registered scenario with virtual metrics: two repeats
        # must agree exactly (the runner raises otherwise).
        result = run_scenario(get_scenario("solver/fault_campaign"), repeats=2)
        assert result.metric("campaign_vtime_s").kind == "virtual"
        assert result.metric("restarts").value == 1.0

    def test_registry_covers_all_groups(self):
        by_group = {s.group for s in select_scenarios()}
        assert by_group == set(GROUPS)

    def test_fast_selection_excludes_slow(self):
        fast = {s.id for s in select_scenarios(fast_only=True)}
        assert "solver/lb_imbalance" not in fast
        assert "kernels/workspace" in fast


# -- comparator -----------------------------------------------------------


class TestComparator:
    def test_within_tolerance_passes(self):
        base = _suite([Metric("vtime_s", 1.0, kind="virtual")])
        cur = _suite([Metric("vtime_s", 1.0 + 1e-9, kind="virtual")])
        report = compare_suites(cur, base)
        assert report.ok
        assert report.deltas[0].status == OK

    def test_injected_regression_flagged(self):
        base = _suite([Metric("vtime_s", 1.0, kind="virtual")])
        cur = _suite([Metric("vtime_s", 1.001, kind="virtual")])
        report = compare_suites(cur, base)
        assert not report.ok
        assert report.deltas[0].status == REGRESSION

    def test_higher_is_better_direction(self):
        base = _suite(
            [Metric("speedup_x", 2.0, kind="virtual", better="higher")]
        )
        worse = _suite(
            [Metric("speedup_x", 1.5, kind="virtual", better="higher")]
        )
        better = _suite(
            [Metric("speedup_x", 2.5, kind="virtual", better="higher")]
        )
        assert not compare_suites(worse, base).ok
        rep = compare_suites(better, base)
        assert rep.ok and rep.deltas[0].status == IMPROVED

    def test_count_metrics_gate_exactly(self):
        base = _suite([Metric("restarts", 1.0, kind="count")])
        cur = _suite([Metric("restarts", 2.0, kind="count")])
        assert not compare_suites(cur, base).ok

    @pytest.mark.parametrize("current", [0.02, 1.8, 2.5, 50.0])
    @pytest.mark.parametrize("host", ["someone-elses-box", None])
    def test_wall_is_reported_never_a_regression(self, current, host):
        """Faster or slower, by jitter or 50x, on the baseline's host
        (``None``: this one) or a foreign one."""
        base = _suite(
            [Metric("wall_s", 1.0, kind="wall")],
            meta={"host": {"fingerprint": host or host_fingerprint()}},
        )
        cur = _suite([Metric("wall_s", current, kind="wall")])
        report = compare_suites(cur, base)
        assert report.ok and not report.improvements
        assert report.deltas[0].status == INFO
        assert "wall_s" in report.render() and "informational" in report.render()

    def test_a_wall_row_that_disappears_is_still_a_regression(self):
        base = _suite([Metric("wall_s", 1.0, kind="wall")])
        report = compare_suites(_suite([]), base)
        assert [d.metric for d in report.regressions] == ["wall_s"]

    def test_per_metric_tolerance_override(self):
        base = _suite([Metric("vtime_s", 1.0, kind="virtual", rel_tol=0.5)])
        cur = _suite([Metric("vtime_s", 1.4, kind="virtual")])
        assert compare_suites(cur, base).ok

    def test_missing_metric_is_regression(self):
        base = _suite(
            [
                Metric("vtime_s", 1.0, kind="virtual"),
                Metric("gone_s", 2.0, kind="virtual"),
            ]
        )
        cur = _suite([Metric("vtime_s", 1.0, kind="virtual")])
        report = compare_suites(cur, base)
        assert not report.ok
        assert report.regressions[0].metric == "gone_s"

    def test_new_scenario_without_baseline_passes(self):
        base = _suite([Metric("vtime_s", 1.0, kind="virtual")])
        cur = _suite([Metric("vtime_s", 1.0, kind="virtual")])
        cur.results.append(
            ScenarioResult(
                scenario="solver/brand_new",
                group="solver",
                metrics=[Metric("x", 1.0)],
            )
        )
        report = compare_suites(cur, base)
        assert report.ok
        assert report.new_scenarios == ["solver/brand_new"]

    def test_missing_baseline_group_warns_not_fails(self, tmp_path):
        cur = {"solver": _suite([Metric("vtime_s", 1.0, kind="virtual")])}
        report = compare_dirs(cur, tmp_path)
        assert report.ok
        assert report.missing_groups == ["solver"]

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError, match="group mismatch"):
            compare_suites(
                _suite([Metric("x", 1.0)]),
                _suite([Metric("x", 1.0)], group="comms"),
            )


# -- end to end through the runner + CLI ----------------------------------


def _bench_cli(*argv):
    return cli_main(["bench", *argv])


class TestEndToEnd:
    def test_run_suites_and_compare_round_trip(self, tmp_path):
        opts = RunOptions(groups=("comms",), repeats=1)
        suites = run_suites(opts)
        assert set(suites) == {"comms"}
        meta = suites["comms"].meta
        assert meta["host"]["fingerprint"] == host_fingerprint()
        assert "numpy" in meta["host"]
        paths = write_suites(suites, tmp_path)
        assert [p.name for p in paths] == [BASELINE_FILENAMES["comms"]]
        # Virtual metrics are deterministic, so a re-run compares clean
        # against the first run as baseline.
        rerun = run_suites(opts)
        report = compare_dirs(rerun, tmp_path)
        assert report.ok, report.render(verbose=True)
        assert len(report.deltas) > 0

    def test_cli_bench_compare_smoke(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        out = tmp_path / "out"
        rc = _bench_cli(
            "--group",
            "comms",
            "--repeats",
            "1",
            "--out",
            str(out),
            "--compare",
            str(baseline),
            "--update-baselines",
        )
        # First run: no baseline yet -> warn-and-skip, then write one.
        assert rc == 0
        assert (baseline / "BENCH_comms.json").exists()
        assert (out / "BENCH_comms.json").exists()

        rc = _bench_cli(
            "--group",
            "comms",
            "--repeats",
            "1",
            "--out",
            str(out),
            "--compare",
            str(baseline),
        )
        assert rc == 0
        assert "PERF GATE: PASS" in capsys.readouterr().out

    def test_cli_bench_detects_tampered_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        out = tmp_path / "out"
        rc = _bench_cli(
            "--group",
            "comms",
            "--repeats",
            "1",
            "--out",
            str(out),
            "--update-baselines",
            "--compare",
            str(baseline),
        )
        assert rc == 0
        path = baseline / "BENCH_comms.json"
        doc = json.loads(path.read_text())
        for result in doc["results"]:
            for metric in result["metrics"]:
                if metric["kind"] == "virtual":
                    metric["value"] *= 0.5
        path.write_text(json.dumps(doc))
        rc = _bench_cli(
            "--group",
            "comms",
            "--repeats",
            "1",
            "--out",
            str(out),
            "--compare",
            str(baseline),
        )
        assert rc == 1
        assert "PERF GATE: FAIL" in capsys.readouterr().out

    def test_cli_bench_list(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "kernels/deriv_n05" in out
        assert "solver/fault_campaign" in out
