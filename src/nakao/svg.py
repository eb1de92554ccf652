"""Dependency-free SVG scatter/curve rendering for the p-q plane figures."""
from __future__ import annotations

import html
import json
from pathlib import Path

WIDTH, HEIGHT = 640, 520
MARGIN = 56
PLOT_W = WIDTH - 2 * MARGIN
PLOT_H = HEIGHT - 2 * MARGIN - 20


def _mapper(lo: float, hi: float, size: float, offset: float, flip: bool):
    span = hi - lo if hi > lo else 1.0

    def to_px(v: float) -> float:
        frac = (v - lo) / span
        if flip:
            frac = 1.0 - frac
        return offset + frac * size

    return to_px


def _ticks(lo: float, hi: float):
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def scatter_svg(path, xs, ys, colors, x_label: str, y_label: str,
                title: str, legend: list[tuple[str, str]], point_size: float,
                config: dict,
                curves: list[tuple[list, list, str]] | None = None) -> None:
    """Colored point cloud with axes; colors are per-point CSS strings and
    legend the (label, color) pairs.  curves are (xs, ys, color) polylines
    drawn over the points.  The resolved config is embedded as the <desc>
    element."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    px = _mapper(x_lo, x_hi, PLOT_W, MARGIN, False)
    py = _mapper(y_lo, y_hi, PLOT_H, MARGIN + 20, True)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        "<desc>config: " + html.escape(json.dumps(
            config, sort_keys=True, separators=(",", ":"), default=str))
        + "</desc>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="16" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for x, y, c in zip(xs, ys, colors):
        parts.append(f'<rect x="{px(x) - point_size / 2:.2f}" '
                     f'y="{py(y) - point_size / 2:.2f}" '
                     f'width="{point_size:.1f}" height="{point_size:.1f}" '
                     f'fill="{c}"/>')
    for cx, cy, color in curves or []:
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}"
                       for a, b in zip(cx, cy))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    axis_y = MARGIN + 20 + PLOT_H
    parts.append(f'<line x1="{MARGIN}" y1="{axis_y}" x2="{MARGIN + PLOT_W}" '
                 f'y2="{axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN + 20}" x2="{MARGIN}" '
                 f'y2="{axis_y}" stroke="black"/>')
    for v in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(v):.2f}" y1="{axis_y}" x2="{px(v):.2f}" '
                     f'y2="{axis_y + 4}" stroke="black"/>')
        parts.append(f'<text x="{px(v):.2f}" y="{axis_y + 16}" '
                     f'text-anchor="middle" font-size="10">{v:.3g}</text>')
    for v in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{MARGIN - 4}" y1="{py(v):.2f}" x2="{MARGIN}" '
                     f'y2="{py(v):.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 6}" y="{py(v) + 3:.2f}" '
                     f'text-anchor="end" font-size="10">{v:.3g}</text>')
    parts.append(f'<text x="{MARGIN + PLOT_W / 2:.1f}" y="{HEIGHT - 8}" '
                 f'text-anchor="middle" font-size="12">{x_label}</text>')
    parts.append(f'<text x="14" y="{MARGIN + 20 + PLOT_H / 2:.1f}" '
                 f'font-size="12" transform="rotate(-90 14 '
                 f'{MARGIN + 20 + PLOT_H / 2:.1f})" '
                 f'text-anchor="middle">{y_label}</text>')
    ly = MARGIN + 24
    for label, color in legend:
        parts.append(f'<rect x="{MARGIN + PLOT_W - 150}" y="{ly - 8}" '
                     f'width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{MARGIN + PLOT_W - 136}" y="{ly + 1}" '
                     f'font-size="11">{label}</text>')
        ly += 16
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
