"""Deterministic SVG figures: the pair's graphs with annotated regions, and
one-dimensional strip renderings of interval sets.

Everything is emitted as plain SVG 1.1 text with a fixed viewport and layer
order, coordinates truncated to six digits: identical inputs give
byte-identical documents, so figures can be diffed in tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .intervals import Interval, IntervalSet
from .ifs import IFSPair
from .axioms import HolePair, RuinationRegions

SIZE = 800
STRIP_H = 80
MARGIN = 40

_COLORS = {
    "f": "#b03030",
    "g": "#3050b0",
    "diagonal": "#999999",
    "w": "#70c070",
    "domain": "#d0d0d0",
    "hole": "#e0a040",
    "ruination": "#9070c0",
    "block": "#c8dcf0",
    "strip": "#303030",
}


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _sx(x: float) -> float:
    return MARGIN + x * (SIZE - 2 * MARGIN)


def _sy(y: float) -> float:
    return SIZE - MARGIN - y * (SIZE - 2 * MARGIN)


def _polyline(xs: Iterable[float], ys: Iterable[float], color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(_sx(x))},{_fmt(_sy(y))}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
            f'points="{pts}"/>')


def _vband(iv: Interval, color: str, opacity: float = 0.35) -> str:
    x0, x1 = _sx(iv.lo), _sx(iv.hi)
    return (f'<rect x="{_fmt(x0)}" y="{_fmt(MARGIN)}" width="{_fmt(max(x1 - x0, 0.5))}" '
            f'height="{_fmt(SIZE - 2 * MARGIN)}" fill="{color}" opacity="{opacity}"/>')


def _square(iv: Interval, color: str) -> str:
    x0, x1 = _sx(iv.lo), _sx(iv.hi)
    y0, y1 = _sy(iv.hi), _sy(iv.lo)
    return (f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{color}" opacity="0.5"/>')


def _graph_points(m) -> tuple[np.ndarray, np.ndarray]:
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 512), np.asarray(m.breakpoints())]))
    return xs, m.eval_array(xs)


def plot_pair(
    p: IFSPair,
    h: HolePair | None = None,
    r: RuinationRegions | None = None,
    blocks: Iterable[Interval] | None = None,
    cover: IntervalSet | None = None,
) -> str:
    """SVG document: graphs of f and g, the diagonal, the overlap band, the
    first fundamental domains, and optional hole/ruination/block layers; a
    strip rendering of `cover` is appended under the square when given."""
    total_h = SIZE + (STRIP_H if cover is not None else 0)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{total_h}" viewBox="0 0 {SIZE} {total_h}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{total_h}" fill="#ffffff"/>',
    ]
    if blocks is not None:
        for b in blocks:
            out.append(_square(b, _COLORS["block"]))
    out.append(_vband(p.f1, _COLORS["domain"], 0.3))
    out.append(_vband(p.g1, _COLORS["domain"], 0.3))
    out.append(_vband(p.overlap, _COLORS["w"], 0.45))
    if h is not None:
        out.append(_vband(h.h_f, _COLORS["hole"], 0.55))
        out.append(_vband(h.h_g, _COLORS["hole"], 0.55))
    if r is not None:
        for iv in r.r_f.parts[:64] + r.r_g.parts[:64]:
            out.append(_vband(iv, _COLORS["ruination"], 0.35))
    out.append(_polyline([0.0, 1.0], [0.0, 1.0], _COLORS["diagonal"], 1.0))
    xs, ys = _graph_points(p.f)
    out.append(_polyline(xs, ys, _COLORS["f"]))
    xs, ys = _graph_points(p.g)
    out.append(_polyline(xs, ys, _COLORS["g"]))
    out.append(f'<text x="{MARGIN}" y="{MARGIN - 12}" font-family="monospace" '
               f'font-size="14">f:{p.f.label or "f"} g:{p.g.label or "g"} '
               f'W=[{p.overlap.lo:.6g},{p.overlap.hi:.6g}]</text>')
    if cover is not None:
        out.append(strip_group(cover, y0=SIZE + 10))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def strip_group(s: IntervalSet, y0: float = 10) -> str:
    rects = [f'<g stroke="none" fill="{_COLORS["strip"]}">']
    for lo, hi in zip(s.los, s.his):
        x0, x1 = _sx(float(lo)), _sx(float(hi))
        rects.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                     f'width="{_fmt(max(x1 - x0, 0.3))}" height="{_fmt(STRIP_H - 20)}"/>')
    rects.append("</g>")
    return "\n".join(rects)


def plot_strip(s: IntervalSet, label: str = "") -> str:
    """Standalone 800x80 strip rendering of an interval set."""
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{STRIP_H}" viewBox="0 0 {SIZE} {STRIP_H}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{STRIP_H}" fill="#ffffff"/>',
        strip_group(s),
    ]
    if label:
        out.append(f'<text x="{MARGIN}" y="{STRIP_H - 4}" font-family="monospace" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
