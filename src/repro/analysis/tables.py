"""Fixed-width table rendering for paper-style reports."""

from __future__ import annotations

from typing import Iterable, List, Sequence

#: Narrowest column, so short headers still line up across tables.
MIN_WIDTH = 8

#: Length of the longest bar of :func:`render_histogram`.
BAR_WIDTH = 50


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    floatfmt: str = "{:.6g}",
) -> str:
    """Render rows as an aligned, pipe-free text table.

    Floats go through ``floatfmt``; everything else through ``str``.
    """
    def fmt(v) -> str:
        if isinstance(v, float):
            return floatfmt.format(v)
        return str(v)

    str_rows: List[List[str]] = [[fmt(v) for v in row] for row in rows]
    widths = [max(MIN_WIDTH, len(h)) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_histogram(
    labels: Sequence[str],
    values: Sequence[float],
    unit: str = "",
) -> str:
    """ASCII bar chart (used for the Fig. 8-10 style plots in text); the
    longest bar is :data:`BAR_WIDTH` characters."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    vmax = max(values) if values else 1.0
    vmax = vmax or 1.0
    lwidth = max((len(l) for l in labels), default=0)
    lines = []
    for label, v in zip(labels, values):
        bar = "#" * max(1 if v > 0 else 0, int(round(BAR_WIDTH * v / vmax)))
        lines.append(f"{label.ljust(lwidth)} |{bar} {v:.6g}{unit}")
    return "\n".join(lines)
