"""Scenario-matrix campaign runner: DSL expansion, comparative report.

The load-bearing assertions mirror the service tier's: matrix cells
are ordinary jobs, so each cell's digest/vtime must match a standalone
run of the same spec, and the report must map results back onto the
grid without mixing cells up.
"""

from __future__ import annotations

import json

import pytest

from repro.service import (
    MatrixSpec,
    run_job,
    run_matrix,
)
from repro.service.matrix import expand_matrix

BASE = {"n": 4, "nel": 4, "nsteps": 2}


def doc(**kw):
    d = {
        "kind": "cmtbone",
        "base": dict(BASE),
        "axes": {
            "nranks": [2, 4],
            "gs_method": ["pairwise", "crystal"],
        },
        "compare": "gs_method",
    }
    d.update(kw)
    return d


class TestMatrixSpec:
    def test_from_doc_round_trip(self):
        m = MatrixSpec.from_doc(doc())
        assert m.kind == "cmtbone"
        assert m.shape == (2, 2)
        assert m.ncells() == 4
        assert m.compare == "gs_method"

    def test_compare_defaults_to_first_axis(self):
        m = MatrixSpec.from_doc(doc(compare=""))
        assert m.compare == "nranks"

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown matrix keys"):
            MatrixSpec.from_doc(doc(jobs=[]))

    def test_rejects_bad_compare(self):
        with pytest.raises(ValueError, match="compare axis"):
            MatrixSpec.from_doc(doc(compare="nope"))

    def test_rejects_empty_axis(self):
        d = doc()
        d["axes"]["gs_method"] = []
        with pytest.raises(ValueError, match="non-empty"):
            MatrixSpec.from_doc(d)

    def test_rejects_missing_axes(self):
        with pytest.raises(ValueError, match="axes"):
            MatrixSpec.from_doc({"kind": "cmtbone"})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MatrixSpec.from_doc(doc(kind="nope"))


class TestExpansion:
    def test_cells_cover_the_cross_product(self):
        cells = expand_matrix(MatrixSpec.from_doc(doc()))
        assert len(cells) == 4
        seen = {(c.spec.nranks, c.spec.params["gs_method"])
                for c in cells}
        assert seen == {(2, "pairwise"), (2, "crystal"),
                        (4, "pairwise"), (4, "crystal")}
        # Axis values route to the right place: nranks is JobSpec
        # metadata, gs_method a param; base params are shared.
        for c in cells:
            assert c.spec.params["n"] == BASE["n"]
            assert "nranks" not in c.spec.params

    def test_null_axis_value_unsets_the_param(self):
        d = doc()
        d["axes"]["fault_spec"] = [None, "degrade:factor=2"]
        cells = expand_matrix(MatrixSpec.from_doc(d))
        faulty = [c for c in cells if c.coords["fault_spec"]]
        clean = [c for c in cells if not c.coords["fault_spec"]]
        assert len(faulty) == len(clean) == 4
        assert all("fault_spec" in c.spec.params for c in faulty)
        assert all("fault_spec" not in c.spec.params for c in clean)
        assert all(c.label.endswith("fault_spec=-") for c in clean)

    def test_smaller_cells_get_higher_priority(self):
        cells = expand_matrix(MatrixSpec.from_doc(doc()))
        by_nranks = sorted(cells, key=lambda c: c.spec.nranks)
        small = [c.spec.priority for c in by_nranks[:2]]
        large = [c.spec.priority for c in by_nranks[2:]]
        assert min(small) > max(large)

    def test_timeout_and_retry_policy_applies_to_every_cell(self):
        m = MatrixSpec.from_doc(doc(timeout_seconds=3.5, max_retries=2))
        for c in expand_matrix(m):
            assert c.spec.timeout_seconds == 3.5
            assert c.spec.max_retries == 2

    def test_labels_are_deterministic_and_distinct(self):
        cells = expand_matrix(MatrixSpec.from_doc(doc()))
        labels = [c.label for c in cells]
        assert len(set(labels)) == len(labels)
        assert labels == [c.label for c in
                          expand_matrix(MatrixSpec.from_doc(doc()))]


class TestRunMatrix:
    def test_two_by_two_report_matches_standalone(self):
        m = MatrixSpec.from_doc(doc())
        report = run_matrix(m, nworkers=2)
        assert not report.failed
        assert len(report.results) == 4
        rows = report.rows()
        assert len(rows) == 2  # one row per nranks value
        for _key, cols in rows:
            assert set(cols) == {"pairwise", "crystal"}
        # Each cell is an ordinary job: bitwise-identical to running
        # its spec standalone.
        for cell, res in zip(report.cells, report.results):
            solo = run_job(cell.spec)
            assert res.digest == solo.digest
            assert res.vtime_total == solo.vtime_total
        # The winner of each row is its fastest completed column.
        winners = [row["winner"] for row in report.to_json()["rows"]]
        for (_key, cols), winner in zip(rows, winners, strict=True):
            assert cols[winner].vtime_total == min(
                r.vtime_total for r in cols.values()
            )

    def test_report_renders_text_and_json(self):
        report = run_matrix(MatrixSpec.from_doc(doc()), nworkers=2)
        text = report.summary()
        assert "matrix: cmtbone, 4 cells 2x2" in text
        assert "<- winner" in text
        assert "0 timeouts" in text
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["ncells"] == 4
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert row["winner"] in row["cells"]
            for cell in row["cells"].values():
                assert cell["status"] == "done"

    def test_failed_cell_excluded_from_winner(self):
        d = doc()
        d["axes"] = {"gs_method": ["pairwise", "crystal"],
                     "work_mode": ["real", "bogus"]}
        d["compare"] = "work_mode"
        report = run_matrix(MatrixSpec.from_doc(d), nworkers=1)
        assert len(report.failed) == 2
        for _key, cols in report.rows():
            assert not cols["bogus"].ok
        assert {row["winner"] for row in report.to_json()["rows"]} == {
            "real"
        }
        assert "failed" in report.summary()

    def test_matrix_cells_share_the_artifact_cache(self, tmp_path):
        d = doc()
        d["axes"] = {"gs_method": ["pairwise", "crystal"]}
        art = str(tmp_path / "spill")
        cold = run_matrix(MatrixSpec.from_doc(d), nworkers=1,
                          artifact_dir=art)
        warm = run_matrix(MatrixSpec.from_doc(d), nworkers=1,
                          artifact_dir=art)
        assert not cold.failed and not warm.failed
        assert all(r.cache_disk_hits == 1 for r in warm.results)
        for c, w in zip(cold.results, warm.results):
            assert w.digest == c.digest
            assert w.vtime_total == c.vtime_total


class TestMatrixCLI:
    def test_campaign_matrix_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc()))
        out = tmp_path / "report.json"
        rc = main(["campaign", "--matrix", str(path),
                   "--workers", "2", "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "<- winner" in text
        payload = json.loads(out.read_text())
        assert payload["ncells"] == 4

    def test_campaign_sources_are_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc()))
        rc = main(["campaign", "--matrix", str(path), "--count", "2"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_campaign_matrix_rejects_bad_doc(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"kind": "cmtbone"}))
        rc = main(["campaign", "--matrix", str(path)])
        assert rc == 2
        assert "axes" in capsys.readouterr().err
