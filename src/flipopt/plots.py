"""Dependency-free SVG line plots of trajectory time histories.

Three figures are emitted from a run directory's trajectory.csv: control
and velocity time histories, the pose-segment trajectory view (body
orientation ticks along the flight path), and a six-panel state summary
(engine torque, mass, pitch, angular rate, angle of attack, reduced
frequency).  Plain-text SVG keeps the artifact diffable and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ("#1f6fb4", "#d0341b", "#2a8f3c", "#8a4fb0", "#c78a00", "#3aa6a6")
# a panel grid's column count, and each panel's width and height in px
PANEL_COLS, PANEL_W, PANEL_H = 2, 360, 240


class PlotError(RuntimeError):
    """Raised for missing or malformed plot inputs."""


@dataclass
class Series:
    x: list
    y: list
    label: str


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def _panel_svg(px: float, py: float, pw: float, ph: float,
               series: list[Series], title: str, xlabel: str,
               ylabel: str) -> str:
    """One axes panel at (px, py) with polyline series and tick labels."""
    margin_l, margin_b, margin_t = 58.0, 34.0, 22.0
    ax = px + margin_l
    ay = py + margin_t
    aw = pw - margin_l - 12.0
    ah = ph - margin_t - margin_b

    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y if math.isfinite(v)]
    if not xs or not ys:
        raise PlotError(f"panel '{title}' has no data")
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(v):
        return ax + (v - xlo) / (xhi - xlo) * aw

    def sy(v):
        return ay + ah - (v - ylo) / (yhi - ylo) * ah

    parts = [
        f'<rect x="{ax:.1f}" y="{ay:.1f}" width="{aw:.1f}" height="{ah:.1f}" '
        'fill="white" stroke="#444" stroke-width="1"/>',
        f'<text x="{px + pw / 2:.1f}" y="{py + 14:.1f}" text-anchor="middle" '
        f'font-size="12" font-weight="bold">{title}</text>',
        f'<text x="{ax + aw / 2:.1f}" y="{py + ph - 6:.1f}" '
        f'text-anchor="middle" font-size="10">{xlabel}</text>',
        f'<text x="{px + 12:.1f}" y="{ay + ah / 2:.1f}" text-anchor="middle" '
        f'font-size="10" transform="rotate(-90 {px + 12:.1f} '
        f'{ay + ah / 2:.1f})">{ylabel}</text>',
    ]
    for t in _ticks(xlo, xhi):
        parts.append(f'<line x1="{sx(t):.1f}" y1="{ay + ah:.1f}" '
                     f'x2="{sx(t):.1f}" y2="{ay + ah + 4:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{sx(t):.1f}" y="{ay + ah + 15:.1f}" '
                     f'text-anchor="middle" font-size="9">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        parts.append(f'<line x1="{ax - 4:.1f}" y1="{sy(t):.1f}" '
                     f'x2="{ax:.1f}" y2="{sy(t):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ax - 6:.1f}" y="{sy(t) + 3:.1f}" '
                     f'text-anchor="end" font-size="9">{_fmt(t)}</text>')
        parts.append(f'<line x1="{ax:.1f}" y1="{sy(t):.1f}" x2="{ax + aw:.1f}" '
                     f'y2="{sy(t):.1f}" stroke="#ddd" stroke-width="0.5"/>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in zip(s.x, s.y) if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.4"/>')
        if len(series) > 1:
            ly = ay + 14 + 13 * i
            parts.append(f'<line x1="{ax + aw - 78:.1f}" y1="{ly:.1f}" '
                         f'x2="{ax + aw - 62:.1f}" y2="{ly:.1f}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{ax + aw - 58:.1f}" y="{ly + 3:.1f}" '
                         f'font-size="9">{s.label}</text>')
    return "\n".join(parts)


def _write_svg(path, W: int, H: int, parts: list[str]) -> None:
    """Write an SVG document of W x H pixels: a white background, then the
    elements in ``parts``, one per line."""
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
             f'height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">',
             f'<rect width="{W}" height="{H}" fill="white"/>', *parts, "</svg>"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_panel_grid(path,
                     panels: list[tuple[str, str, str, list[Series]]]) -> None:
    """Write a grid of line panels; each entry is (title, xlabel, ylabel, series)."""
    nrows = -(-len(panels) // PANEL_COLS)
    _write_svg(path, PANEL_COLS * PANEL_W, nrows * PANEL_H, [
        _panel_svg((i % PANEL_COLS) * PANEL_W, (i // PANEL_COLS) * PANEL_H,
                   PANEL_W, PANEL_H, series, title, xlabel, ylabel)
        for i, (title, xlabel, ylabel, series) in enumerate(panels)])


def write_pose_plot(path, x_over_L, y_over_L, theta_rad, l_cg_frac: float,
                    title: str) -> None:
    """Trajectory view with one body segment per step.

    Each segment spans nose to engine base through the cg position; dots
    mark the cg (dark) and the base (light).
    """
    n = len(x_over_L)
    if n == 0:
        raise PlotError("empty trajectory")
    nose_f = l_cg_frac          # cg sits l_cg_frac lengths from the nose
    base_f = 1.0 - l_cg_frac
    seg_x, seg_y = [], []
    for xc, yc, th in zip(x_over_L, y_over_L, theta_rad):
        c, s = math.cos(th), math.sin(th)
        seg_x.append((xc - base_f * c, xc + nose_f * c))
        seg_y.append((yc - base_f * s, yc + nose_f * s))

    all_x = [v for p in seg_x for v in p]
    all_y = [v for p in seg_y for v in p]
    xlo, xhi = min(all_x) - 0.8, max(all_x) + 0.8
    ylo, yhi = min(all_y) - 0.8, max(all_y) + 0.8

    W, H = 540, 720
    m = 56.0
    scale = min((W - 2 * m) / (xhi - xlo), (H - 2 * m) / (yhi - ylo))
    cx, cy = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)

    def sx(v):
        return W / 2 + (v - cx) * scale

    def sy(v):
        return H / 2 - (v - cy) * scale

    parts = [f'<text x="{W / 2}" y="20" text-anchor="middle" font-size="13" '
             f'font-weight="bold">{title}</text>']
    for t in _ticks(xlo, xhi, 6):
        parts.append(f'<text x="{sx(t):.1f}" y="{H - 8}" text-anchor="middle" '
                     f'font-size="9">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi, 8):
        parts.append(f'<text x="12" y="{sy(t):.1f}" font-size="9">{_fmt(t)}</text>')
    parts.append(f'<text x="{W / 2}" y="{H - 24}" text-anchor="middle" '
                 'font-size="10">x / L_ref</text>')
    parts.append(f'<text x="30" y="{H / 2}" text-anchor="middle" font-size="10" '
                 f'transform="rotate(-90 30 {H / 2})">y / L_ref</text>')
    path_pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                        for x, y in zip(x_over_L, y_over_L))
    parts.append(f'<polyline points="{path_pts}" fill="none" stroke="#bbb" '
                 'stroke-width="1" stroke-dasharray="3,3"/>')
    for (x0, x1), (y0, y1), xc, yc, th in zip(seg_x, seg_y, x_over_L,
                                              y_over_L, theta_rad):
        parts.append(f'<line x1="{sx(x0):.1f}" y1="{sy(y0):.1f}" '
                     f'x2="{sx(x1):.1f}" y2="{sy(y1):.1f}" '
                     'stroke="#1f6fb4" stroke-width="1.3"/>')
        parts.append(f'<circle cx="{sx(xc):.1f}" cy="{sy(yc):.1f}" r="1.6" '
                     'fill="#d0341b"/>')
        parts.append(f'<circle cx="{sx(x0):.1f}" cy="{sy(y0):.1f}" r="1.2" '
                     'fill="#888"/>')
    _write_svg(path, W, H, parts)


def flip_altitude_over_L(y_over_L, theta_deg, theta0_deg: float,
                         thetaf_deg: float) -> float | None:
    """y/L_ref where the pitch first crosses the midpoint of the flip.

    Reported informationally; the crossing altitude depends on the chosen
    loss weights, not on hard constraints.
    """
    mid = 0.5 * (theta0_deg + thetaf_deg)
    sign0 = theta_deg[0] - mid
    for y, th in zip(y_over_L, theta_deg):
        if (th - mid) * sign0 <= 0.0:
            return y
    return None
