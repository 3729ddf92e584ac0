"""Histogram emission for posterior traces: counts as CSV, pictures as SVG.

SVG output is plain text built by hand, which keeps plots dependency-free,
deterministic, and diffable in tests.  A single trace yields one histogram
per parameter; two traces yield semi-transparent overlays on shared bins.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import NonFiniteDraws, PlainbayesError, PlotMismatch
from .sampler import Trace

__all__ = ["check_bins", "plot_trace", "write_histogram_csv", "render_histogram_svg"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 20, 40, 50
_COLORS = ("#4878cf", "#d65f5f")
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # for text nodes, as xml.sax.saxutils.escape


def write_histogram_csv(path, edges: np.ndarray, series: dict[str, np.ndarray]) -> None:
    names = list(series)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["bin_left", "bin_right"] + [f"count_{n}" for n in names]) + "\n")
        for i in range(len(edges) - 1):
            cells = [repr(float(edges[i])), repr(float(edges[i + 1]))]
            cells += [str(int(series[n][i])) for n in names]
            fh.write(",".join(cells) + "\n")


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def render_histogram_svg(path, title: str, edges: np.ndarray, series: dict[str, np.ndarray]) -> None:
    """Draw one or two histogram series as overlaid bars with axes and legend, each text XML-escaped."""
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_min, x_max = float(edges[0]), float(edges[-1])
    x_span = x_max - x_min or 1.0
    y_max = max(1, max(int(counts.max()) for counts in series.values()))

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / x_span * plot_w

    def sy(count: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - count / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="15">{title.translate(_XML_TEXT)}</text>',
    ]
    opacity = 0.55 if len(series) > 1 else 0.9
    for (label, counts), color in zip(series.items(), _COLORS):
        for i, count in enumerate(counts):
            if count <= 0:
                continue
            x0, x1 = sx(float(edges[i])), sx(float(edges[i + 1]))
            y = sy(float(count))
            parts.append(
                f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" '
                f'height="{_MARGIN_TOP + plot_h - y:.2f}" fill="{color}" fill-opacity="{opacity}"/>'
            )
    # axes
    x_axis_y = _MARGIN_TOP + plot_h
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{x_axis_y}" x2="{_WIDTH - _MARGIN_RIGHT}" y2="{x_axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{x_axis_y}" stroke="black"/>')
    for i in range(6):
        x = x_min + x_span * i / 5
        parts.append(f'<line x1="{sx(x):.2f}" y1="{x_axis_y}" x2="{sx(x):.2f}" y2="{x_axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(x):.2f}" y="{x_axis_y + 20}" text-anchor="middle">{_fmt(x).translate(_XML_TEXT)}</text>')
    for i in range(5):
        count = y_max * i / 4
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{sy(count):.2f}" x2="{_MARGIN_LEFT}" y2="{sy(count):.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 9}" y="{sy(count) + 4:.2f}" text-anchor="end">{_fmt(count).translate(_XML_TEXT)}</text>')
    parts.append(
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle">{title.translate(_XML_TEXT)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2})">count</text>'
    )
    if len(series) > 1:
        for j, (label, color) in enumerate(zip(series, _COLORS)):
            y = _MARGIN_TOP + 14 + 18 * j
            x = _WIDTH - _MARGIN_RIGHT - 140
            parts.append(f'<rect x="{x}" y="{y - 10}" width="12" height="12" fill="{color}" fill-opacity="{opacity}"/>')
            parts.append(f'<text x="{x + 18}" y="{y}">{label.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _finite_draws(trace: Trace, name: str) -> np.ndarray:
    values = trace.pooled(name)
    if not np.isfinite(values).all():
        raise NonFiniteDraws(name)
    return values


def check_bins(bins: int) -> None:
    """Raise unless a histogram can have ``bins`` bins."""
    if bins < 1:
        raise PlainbayesError(f"bins must be >= 1, got {bins}")


def plot_trace(
    trace: Trace,
    out_dir,
    compare: Trace | None = None,
    bins: int = 50,
    label: str = "trace",
    compare_label: str = "compare",
) -> list[Path]:
    """Write per-parameter histogram CSV + SVG files; returns the paths.

    With ``compare``, both traces must expose the same parameter set and are
    binned over their combined range so the overlays share edges.  Draws
    must be finite: a NaN or an infinity raises :class:`NonFiniteDraws`.
    """
    check_bins(bins)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if compare is not None and set(trace.param_names) != set(compare.param_names):
        raise PlotMismatch(trace.param_names, compare.param_names)

    written: list[Path] = []
    for name in trace.param_names:
        main = _finite_draws(trace, name)
        if compare is None:
            counts, edges = np.histogram(main, bins=bins)
            series = {label: counts}
        else:
            other = _finite_draws(compare, name)
            lo = min(main.min(), other.min())
            hi = max(main.max(), other.max())
            counts, edges = np.histogram(main, bins=bins, range=(lo, hi))
            other_counts, _ = np.histogram(other, bins=bins, range=(lo, hi))
            series = {label: counts, compare_label: other_counts}
        csv_path = out_dir / f"hist_{name}.csv"
        svg_path = out_dir / f"hist_{name}.svg"
        write_histogram_csv(csv_path, edges, series)
        render_histogram_svg(svg_path, name, edges, series)
        written += [csv_path, svg_path]
    return written
