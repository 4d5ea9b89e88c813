"""Tiny standalone SVG line charts: polylines, optional mean +/- std bands,
axis ticks, and a legend. No plotting dependency; ``line_chart`` returns
the SVG text and the caller writes it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


@dataclass
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    lo: Optional[Sequence[float]] = None  # lower band edge
    hi: Optional[Sequence[float]] = None


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fmt(v):
    return f"{v:.4g}"


def line_chart(series, title="", x_label="", y_label="",
               width=640, height=420):
    if not series:
        raise ValueError("need at least one series")
    margin_l, margin_r, margin_t, margin_b = 64, 16, 34, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

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
        return margin_l + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return margin_t + (y_max - y) / (y_max - y_min) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

    # axes and ticks
    x0, y0 = margin_l, margin_t + plot_h
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{x0}" y1="{margin_t}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    for tx in _ticks(x_min, x_max):
        out.append(
            f'<line x1="{px(tx):.1f}" y1="{y0}" x2="{px(tx):.1f}" '
            f'y2="{y0 + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.1f}" y="{y0 + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_min, y_max):
        out.append(
            f'<line x1="{x0 - 4}" y1="{py(ty):.1f}" x2="{x0}" '
            f'y2="{py(ty):.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x0 - 7}" y="{py(ty) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{x_label}</text>"
        )
    if y_label:
        cx, cy = 16, margin_t + plot_h / 2
        out.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{y_label}</text>'
        )

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if s.lo is not None and len(s.lo):
            band = [f"{px(x):.1f},{py(y):.1f}" for x, y in zip(s.xs, s.hi)]
            band += [
                f"{px(x):.1f},{py(y):.1f}"
                for x, y in zip(reversed(list(s.xs)), reversed(list(s.lo)))
            ]
            out.append(
                f'<polygon points="{" ".join(band)}" fill="{color}" '
                f'fill-opacity="0.15" stroke="none"/>'
            )
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(s.xs, s.ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        # legend entry
        ly = margin_t + 14 + 16 * idx
        lx = margin_l + plot_w - 130
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 27}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{s.label}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
