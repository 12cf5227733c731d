"""Deterministic SVG rendering of scenes and solutions.

Element order is fixed (circles with center marks in input order, then
segments from the solution point to the projection points, then angle arc
annotations, then the point itself) and floats are formatted with a fixed
precision, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import math

from .geometry import Configuration
from .solver import SolveResult

_MARGIN = 0.12


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def render_svg(config: Configuration, result: SolveResult | None = None, size: int = 640) -> str:
    """Render the configuration (and optionally its solution) as SVG text."""
    xs, ys = [], []
    for c in config.circles:
        xs += [c.center.x - c.radius, c.center.x + c.radius]
        ys += [c.center.y - c.radius, c.center.y + c.radius]
    if result is not None:
        xs.append(result.point.x)
        ys.append(result.point.y)
        for x, y in result.projection_xy:
            xs.append(x)
            ys.append(y)
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    pad = _MARGIN * span
    min_x -= pad
    min_y -= pad
    span += 2.0 * pad
    k = size / span

    def sx(x: float) -> float:
        return (x - min_x) * k

    def sy(y: float) -> float:
        return size - (y - min_y) * k  # flip: SVG y grows downward

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for c in config.circles:
        lines.append(
            f'<circle cx="{_fmt(sx(c.center.x))}" cy="{_fmt(sy(c.center.y))}" '
            f'r="{_fmt(c.radius * k)}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
        lines.append(
            f'<circle cx="{_fmt(sx(c.center.x))}" cy="{_fmt(sy(c.center.y))}" '
            f'r="2.5" fill="#1f77b4"/>'
        )
    if result is not None:
        p = result.point
        for x, y in result.projection_xy:
            lines.append(
                f'<line x1="{_fmt(sx(p.x))}" y1="{_fmt(sy(p.y))}" '
                f'x2="{_fmt(sx(x))}" y2="{_fmt(sy(y))}" '
                f'stroke="#d62728" stroke-width="1.2"/>'
            )
        if result.sector_angles:
            arc_r = 0.2 * min(math.hypot(p.x - x, p.y - y) for x, y in result.projection_xy)
            for i, sector in zip(result.sector_order, result.sector_angles):
                a0 = result.ray_azimuths[i]
                a1 = a0 + sector
                x0, y0 = p.x + arc_r * math.cos(a0), p.y + arc_r * math.sin(a0)
                x1, y1 = p.x + arc_r * math.cos(a1), p.y + arc_r * math.sin(a1)
                large = 1 if sector > math.pi else 0
                # sweep=0 because the y-flip turns CCW into screen-CW
                lines.append(
                    f'<path d="M {_fmt(sx(x0))} {_fmt(sy(y0))} '
                    f'A {_fmt(arc_r * k)} {_fmt(arc_r * k)} 0 {large} 0 '
                    f'{_fmt(sx(x1))} {_fmt(sy(y1))}" '
                    f'fill="none" stroke="#2ca02c" stroke-width="1.0"/>'
                )
                mid = a0 + 0.5 * sector
                tx = p.x + 1.45 * arc_r * math.cos(mid)
                ty = p.y + 1.45 * arc_r * math.sin(mid)
                lines.append(
                    f'<text x="{_fmt(sx(tx))}" y="{_fmt(sy(ty))}" font-size="10" '
                    f'text-anchor="middle" fill="#2ca02c">{math.degrees(sector):.2f}&#176;</text>'
                )
        lines.append(
            f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="3.5" fill="#d62728"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
