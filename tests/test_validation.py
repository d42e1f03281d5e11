"""Mini-app validation methodology (Section VII future work)."""

import pytest

from repro.core import CMTBoneConfig
from repro.validation import (
    AppSignature,
    PHASES,
    cmtbone_signature,
    score,
    solver_signature,
    validation_report,
)

CONFIG = CMTBoneConfig(
    n=6, local_shape=(2, 2, 1), proc_shape=(2, 2, 1), nsteps=3,
    work_mode="real", gs_method="pairwise", monitor_every=1,
)


@pytest.fixture(scope="module")
def signatures():
    mini = cmtbone_signature(CONFIG, nranks=4)
    parent = solver_signature(CONFIG, nranks=4)
    return mini, parent


class TestSignatures:
    def test_fractions_sum_to_one(self, signatures):
        for sig in signatures:
            assert sum(sig.phase_fractions.values()) == pytest.approx(1.0)
            assert set(sig.phase_fractions) == set(PHASES)

    def test_derivative_is_largest_compute_phase_both(self, signatures):
        for sig in signatures:
            fr = sig.phase_fractions
            assert fr["derivative"] > fr["surface"]
            assert fr["derivative"] > fr["update"]

    def test_message_sizes_identical(self, signatures):
        """Both apps exchange the same DG face traces: identical
        per-message size is the strongest structural agreement."""
        mini, parent = signatures
        assert mini.mean_message_bytes == pytest.approx(
            parent.mean_message_bytes
        )

    def test_mini_app_underestimates_comm_volume(self, signatures):
        """The uncalibrated mini-app exchanges 5 traces/stage; the
        parent exchanges 11 (U + F + lambda) — a genuine proxy gap the
        methodology is supposed to find."""
        mini, parent = signatures
        assert parent.total_message_bytes > 1.5 * mini.total_message_bytes


class TestScoring:
    def test_identity_scores_one(self, signatures):
        mini, _ = signatures
        s = score(mini, mini)
        assert s.phase_similarity == pytest.approx(1.0)
        assert s.comm_volume_ratio == pytest.approx(1.0)
        assert s.overall == pytest.approx(1.0)

    def test_score_in_unit_interval(self, signatures):
        s = score(*signatures)
        for v in (s.phase_similarity, s.comm_volume_ratio,
                  s.message_size_ratio, s.mpi_fraction_ratio, s.overall):
            assert 0.0 <= v <= 1.0

    def test_reasonable_baseline_agreement(self, signatures):
        """The uncalibrated proxy must already be 'adequate' (paper's
        wording): phase breakdown mostly right, sizes exact."""
        s = score(*signatures)
        assert s.phase_similarity > 0.6
        assert s.message_size_ratio == pytest.approx(1.0)
        assert s.overall > 0.5

    def test_zero_vs_nonzero_ratio(self):
        a = AppSignature("a", dict.fromkeys(PHASES, 0.2), 10, 12, 100, 10)
        b = AppSignature("b", dict.fromkeys(PHASES, 0.2), 10, 12, 0, 0)
        s = score(a, b)
        assert s.comm_volume_ratio == 0.0


class TestCalibration:
    def test_exchange_fields_closes_the_volume_gap(self):
        """Setting exchange_fields=11 (validation-driven calibration)
        brings the mini-app's comm volume to the parent's."""
        calibrated = CONFIG.with_(exchange_fields=11)
        mini = cmtbone_signature(calibrated, nranks=4)
        parent = solver_signature(CONFIG, nranks=4)
        s = score(mini, parent)
        assert s.comm_volume_ratio > 0.9

    def test_calibration_improves_overall_score(self):
        parent = solver_signature(CONFIG, nranks=4)
        base = score(cmtbone_signature(CONFIG, nranks=4), parent)
        cal = score(
            cmtbone_signature(CONFIG.with_(exchange_fields=11), nranks=4),
            parent,
        )
        assert cal.overall > base.overall


class TestReport:
    def test_report_renders(self, signatures):
        text = validation_report(*signatures)
        assert "time % in derivative" in text
        assert "OVERALL" in text
        assert "CMT-bone" in text
