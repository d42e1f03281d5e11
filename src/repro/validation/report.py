"""Similarity scoring and report rendering for mini-app validation."""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..analysis.tables import render_table
from .compare import PHASES, AppSignature


class ValidationScore(NamedTuple):
    """Similarity of the mini-app's signature to the parent's.

    All components lie in [0, 1]; 1 is a perfect match.
    """

    phase_similarity: float       # 1 - total-variation distance
    comm_volume_ratio: float      # min/max of total exchanged bytes
    message_size_ratio: float     # min/max of mean message size
    mpi_fraction_ratio: float     # min/max of mean MPI %

    @property
    def overall(self) -> float:
        """Geometric mean of the component scores."""
        parts = [
            max(self.phase_similarity, 1e-12),
            max(self.comm_volume_ratio, 1e-12),
            max(self.message_size_ratio, 1e-12),
            max(self.mpi_fraction_ratio, 1e-12),
        ]
        prod = 1.0
        for p in parts:
            prod *= p
        return prod ** (1.0 / len(parts))


def _ratio(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        return 0.0 if (a > 0) != (b > 0) else 1.0
    return min(a, b) / max(a, b)


def score(mini: AppSignature, parent: AppSignature) -> ValidationScore:
    """Compare two signatures on the methodology's metrics."""
    tv = 0.5 * sum(
        abs(mini.phase_fractions.get(p, 0.0)
            - parent.phase_fractions.get(p, 0.0))
        for p in PHASES
    )
    return ValidationScore(
        phase_similarity=1.0 - tv,
        comm_volume_ratio=_ratio(
            mini.total_message_bytes, parent.total_message_bytes
        ),
        message_size_ratio=_ratio(
            mini.mean_message_bytes, parent.mean_message_bytes
        ),
        mpi_fraction_ratio=_ratio(
            mini.mpi_pct_mean, parent.mpi_pct_mean
        ),
    )


def validation_report(
    mini: AppSignature,
    parent: AppSignature,
    scores: Optional[ValidationScore] = None,
) -> str:
    """The side-by-side validation table + scores."""
    scores = scores or score(mini, parent)
    rows: List[tuple] = []
    for p in PHASES:
        rows.append((
            f"time % in {p}",
            100 * mini.phase_fractions.get(p, 0.0),
            100 * parent.phase_fractions.get(p, 0.0),
        ))
    rows += [
        ("MPI % (mean)", mini.mpi_pct_mean, parent.mpi_pct_mean),
        ("p2p bytes total", float(mini.total_message_bytes),
         float(parent.total_message_bytes)),
        ("p2p messages", float(mini.message_count),
         float(parent.message_count)),
        ("mean message bytes", mini.mean_message_bytes,
         parent.mean_message_bytes),
    ]
    table = render_table(
        ["metric", mini.label, parent.label], rows, floatfmt="{:.4g}"
    )
    score_rows = [
        ("phase-breakdown similarity", scores.phase_similarity),
        ("comm-volume ratio", scores.comm_volume_ratio),
        ("message-size ratio", scores.message_size_ratio),
        ("MPI-fraction ratio", scores.mpi_fraction_ratio),
        ("OVERALL (geometric mean)", scores.overall),
    ]
    score_table = render_table(
        ["similarity metric (1 = perfect)", "score"],
        score_rows, floatfmt="{:.3f}",
    )
    return f"{table}\n\n{score_table}"
