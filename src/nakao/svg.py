"""Dependency-free SVG drawing of a p-q region grid and its critical curve."""
from __future__ import annotations

import html

import numpy as np

from .exponents import Verdict, critical_curve_q, region_scan
from .output import config_json, written

WIDTH, HEIGHT = 640, 520
MARGIN = 56
PLOT_W = WIDTH - 2 * MARGIN
PLOT_H = HEIGHT - 2 * MARGIN - 20
FILLS = ("#c62828", "#ef9a00", "#9e9e9e", "#e0e0e0")   # by verdict code
RECT_BYTES = 45   # a drawn cell's <rect/> line without its numbers and fill


def _ticks(lo: float, hi: float):
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def region_svg(path, n: int, p_axis, q_axis, config: dict) -> None:
    """One square per cell of the grid over the two axes, colored by its
    verdict code (FILLS), with the critical curve (one point per p whose
    crossing lies in the box) drawn over it as one polyline and the
    resolved config as the <desc> element.  The file is written one p
    column at a time, each classified by region_scan as it is written, and
    removed if writing fails."""
    res = len(q_axis)
    size = max(2.0, 360.0 / res)
    x_lo, x_hi = float(p_axis.min()), float(p_axis.max())
    y_lo, y_hi = float(q_axis.min()), float(q_axis.max())
    px = lambda p: MARGIN + (p - x_lo) / (x_hi - x_lo) * PLOT_W
    py = lambda q: MARGIN + 20 + (1.0 - (q - y_lo) / (y_hi - y_lo)) * PLOT_H
    # every x, y and fill is formatted once; a cell is its column's head and
    # the tail of its (code, q) pair
    heads = [f'<rect x="{px(p) - size / 2:.2f}" y="' for p in p_axis.tolist()]
    tails = np.array([[f'{py(q) - size / 2:.2f}" width="{size:.1f}" '
                       f'height="{size:.1f}" fill="{fill}"/>'
                       for q in q_axis.tolist()] for fill in FILLS],
                     dtype=object)
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        "<desc>config: " + html.escape(config_json(config)) + "</desc>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="16" text-anchor="middle" '
        f'font-size="14">blow-up classification, n={n}</text>',
    ]
    parts = []
    curve = [(p, qc) for p in p_axis.tolist()
             if (qc := critical_curve_q(n, p, y_hi)) is not None and qc >= y_lo]
    if len(curve) > 1:
        pts = " ".join(f"{px(p):.2f},{py(q):.2f}" for p, q in curve)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="#1a237e" stroke-width="1.5"/>')
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
                 f'text-anchor="middle" font-size="12">p</text>')
    parts.append(f'<text x="14" y="{MARGIN + 20 + PLOT_H / 2:.1f}" '
                 f'font-size="12" transform="rotate(-90 14 '
                 f'{MARGIN + 20 + PLOT_H / 2:.1f})" '
                 f'text-anchor="middle">q</text>')
    ly = MARGIN + 24
    for verdict, fill in zip(Verdict, FILLS):
        parts.append(f'<rect x="{MARGIN + PLOT_W - 150}" y="{ly - 8}" '
                     f'width="10" height="10" fill="{fill}"/>')
        parts.append(f'<text x="{MARGIN + PLOT_W - 136}" y="{ly + 1}" '
                     f'font-size="11">{verdict.value}</text>')
        ly += 16
    parts.append("</svg>")
    cols = np.arange(res)
    with written(path) as fh:
        fh.write("\n".join(head) + "\n")
        for row, x in enumerate(heads):
            codes = region_scan(n, p_axis[row:row + 1], q_axis)
            fh.write(x + ("\n" + x).join(tails[codes, cols].tolist()) + "\n")
        fh.write("\n".join(parts) + "\n")
