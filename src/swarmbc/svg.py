"""Tiny standalone SVG line charts: polylines, optional mean +/- std bands,
axis ticks, and a legend. No plotting dependency; ``line_chart`` returns
the SVG text and the caller writes it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_T = 64, 34
PLOT_W = WIDTH - MARGIN_L - 16  # right margin 16
PLOT_H = HEIGHT - MARGIN_T - 46  # bottom margin 46
N_TICKS = 5


@dataclass
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    lo: Optional[Sequence[float]] = None  # lower band edge
    hi: Optional[Sequence[float]] = None


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (N_TICKS - 1)
    return [lo + i * step for i in range(N_TICKS)]


def _line(x1, y1, x2, y2, stroke="black", tail=""):
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{tail}/>'


def _text(x, y, body, size, anchor="middle", tail=""):
    """A ``<text>`` element; ``anchor=""`` leaves the anchor out."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{tail}>{body}</text>')


def line_chart(series, title="", x_label="", y_label=""):
    if not series:
        raise ValueError("need at least one series")
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    for s in series:
        if s.lo is not None:
            ys_all.extend(s.lo)
            ys_all.extend(s.hi)
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - pad, y_max + pad

    def px(x):
        return f"{MARGIN_L + (x - x_min) / (x_max - x_min) * PLOT_W:.1f}"

    def py(y, dy=0):
        return f"{MARGIN_T + (y_max - y) / (y_max - y_min) * PLOT_H + dy:.1f}"

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(_text(f"{WIDTH / 2:.1f}", 20, title, 14))

    # axes and ticks
    x0, y0 = MARGIN_L, MARGIN_T + PLOT_H
    out += [_line(x0, y0, x0 + PLOT_W, y0), _line(x0, MARGIN_T, x0, y0)]
    for tx in _ticks(x_min, x_max):
        out += [_line(px(tx), y0, px(tx), y0 + 4), _text(px(tx), y0 + 17, f"{tx:.4g}", 11)]
    for ty in _ticks(y_min, y_max):
        out += [_line(x0 - 4, py(ty), x0, py(ty)),
                _text(x0 - 7, py(ty, 4), f"{ty:.4g}", 11, anchor="end")]
    if x_label:
        out.append(_text(f"{MARGIN_L + PLOT_W / 2:.1f}", HEIGHT - 10, x_label, 12))
    if y_label:
        cy = f"{MARGIN_T + PLOT_H / 2:.1f}"
        out.append(_text(16, cy, y_label, 12, tail=f' transform="rotate(-90 16 {cy})"'))

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if s.lo is not None and len(s.lo):
            band = [f"{px(x)},{py(y)}" for x, y in zip(s.xs, s.hi)]
            band += [f"{px(x)},{py(y)}" for x, y in zip(reversed(list(s.xs)), reversed(list(s.lo)))]
            out.append(f'<polygon points="{" ".join(band)}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in zip(s.xs, s.ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        # legend entry
        ly, lx = MARGIN_T + 14 + 16 * idx, MARGIN_L + PLOT_W - 130
        out += [_line(lx, ly - 4, lx + 22, ly - 4, color, ' stroke-width="2"'),
                _text(lx + 27, ly, s.label, 11, anchor="")]

    out.append("</svg>")
    return "\n".join(out) + "\n"
