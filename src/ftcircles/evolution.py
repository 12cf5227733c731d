"""Evolution traces of five weighted circles with radii scaled to weights.

The centers stay fixed at a convex pentagon and every state in a trace is an
equilibrium weight vector for the same branching point, so rays and transfer
coefficients are computed once. Radii follow the weights through a single
global scale, and a trace terminates when circles would touch, when a weight
would drop to zero, or when the schedule runs out.

Both types run one loop over a reduced weight vector ``r`` whose entries sum
to a conserved total; the circle weights are ``r[source] * factor``. Each
step is a move on a ray layout: it adds its increments to the free entries
``r[layout[3:]]`` and then sets the triangle entries ``r[layout[:3]]``
through the transfer coefficients of that layout. When a move grows
something, the three entries it sets must respond ``(-, +, -)``; a deviation
is recorded as a diagnostic on the trace, not raised.

Type A grows the two branches in the sector between rays 3 and 1 (0-based
labels 3 and 4) simultaneously: ``r`` is the five weights and the layout is
``0..4``. Type B alternates between growing the composite of rays 3 and 4
(their weighted vector sum, a single ray of the reduced quadrilateral) and
growing ray 1, never both in one step: ``r`` is ``w0, w1, w2`` and the
composite magnitude ``m``, which splits onto rays 3 and 4 along fixed
directions, and the layouts alternate between ``(0, 1, 2, 3)`` and
``(0, 3, 2, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidConfiguration, PreconditionViolated
from .geometry import Configuration, Point2, first_touching_pair, pair_distances
from .plasticity import SectorAngles, TriangleRatios, transfer_coefficients
from .solver import solve

#: Weight changes smaller than this (relative to the total) count as unchanged.
_CHANGE_EPS = 1e-12


class EvolutionType(Enum):
    TYPE_A = "A"
    TYPE_B = "B"


class WeightChange(Enum):
    INCREASED = "+"
    DECREASED = "-"
    UNCHANGED = "="


#: The response of the three weights that a growing move sets.
_RESPONSE = (WeightChange.DECREASED, WeightChange.INCREASED, WeightChange.DECREASED)


class TerminationReason(Enum):
    SCHEDULE_EXHAUSTED = "schedule_exhausted"
    OVERLAP = "overlap"
    NONPOSITIVE_WEIGHT = "nonpositive_weight"


@dataclass(frozen=True)
class EvolutionStep:
    """One trace state: five weights, their scaled radii, and the step's pattern."""

    step: int
    weights: tuple[float, ...]
    radii: tuple[float, ...]
    active_branches: str
    pattern: tuple[WeightChange, ...]
    conserved_sum: float
    composite_weight: float | None = None

    def pattern_string(self) -> str:
        return "".join(p.value for p in self.pattern)


@dataclass(frozen=True)
class EvolutionTrace:
    type_tag: EvolutionType
    steps: tuple[EvolutionStep, ...]
    config: Configuration
    scale: float
    point: Point2
    termination: TerminationReason
    pattern_violations: tuple[str, ...]


def _default_schedule(config: Configuration, steps: int) -> list[float]:
    """Geometrically decaying increments: 0.01 * total * 0.9**k."""
    total = sum(config.weights)
    return [0.01 * total * 0.9**k for k in range(steps)]


def _default_scale(config: Configuration) -> float:
    """Scale making the largest initial radius 10% of the closest center pair."""
    dmin = float(pair_distances(config.centers_array()).min())
    return 0.1 * dmin / max(config.weights)


def compose_rays(
    w_a: float, dir_a: Sequence[float], w_b: float, dir_b: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Magnitude and direction of the weighted vector sum of two unit rays.

    Opposite collinear rays give magnitude |w_a - w_b|; the direction is
    undefined at zero magnitude and (1, 0) is returned then.
    """
    v = float(w_a) * np.asarray(dir_a, float) + float(w_b) * np.asarray(dir_b, float)
    m = float(np.linalg.norm(v))
    if m < 1e-15:
        return 0.0, np.array([1.0, 0.0])
    return m, v / m


def _pattern(prev: list[float], new: list[float], total: float) -> tuple[WeightChange, ...]:
    eps = _CHANGE_EPS * total
    return tuple(
        WeightChange.INCREASED if b - a > eps
        else WeightChange.DECREASED if a - b > eps
        else WeightChange.UNCHANGED
        for a, b in zip(prev, new)
    )


def _prepare(config: Configuration) -> tuple[Point2, SectorAngles, np.ndarray]:
    """Solve, check the pentagon preconditions, return point, ray layout, unit rays."""
    if config.n != 5:
        raise PreconditionViolated(f"evolution is defined for 5 circles, got {config.n}")
    base = solve(config)
    if not base.case.is_floating:
        raise PreconditionViolated("evolution requires a floating instance")
    layout = SectorAngles.from_result(base)
    rays = np.column_stack([np.cos(layout.azimuths), np.sin(layout.azimuths)])
    # growing branches (labels 3, 4) must lie in the sector from ray 2 to
    # ray 0 that avoids ray 1, i.e. the input labels run around the point
    order = list(base.sector_order)
    k = order.index(0)
    seq = order[k:] + order[:k]
    if seq != [0, 1, 2, 3, 4] and seq != [0, 4, 3, 2, 1]:
        raise PreconditionViolated(
            f"circle labels must run around the point in order, got cycle {seq}"
        )
    return base.point, layout, rays


def _evolve(
    type_tag: EvolutionType,
    config: Configuration,
    point: Point2,
    scale: float | None,
    r: list[float],
    source: list[int],
    factor: list[float],
    moves: Iterable[tuple],
) -> EvolutionTrace:
    """Step the reduced weights ``r`` through ``moves``; see the module docstring.

    A move is ``(increments, coefficients, layout, label)``, and the circle
    weights are ``r[source] * factor``.
    """
    if scale is None:
        scale = _default_scale(config)
    if not (math.isfinite(scale) and scale > 0.0):
        raise InvalidConfiguration(f"radius scale must be finite and > 0, got {scale}")
    composite = type_tag is EvolutionType.TYPE_B
    expected = "the expected quadrilateral response" if composite else "-+-++"
    total = reduce(add, r)
    centers = config.centers_array()
    weights = config.weights_array().tolist()
    unchanged = (WeightChange.UNCHANGED,) * 5
    radii = [scale * x for x in weights]
    c = r[3] if composite else None
    steps = [EvolutionStep(0, tuple(weights), tuple(radii), "initial", unchanged, total, c)]
    termination = TerminationReason.SCHEDULE_EXHAUSTED
    violations: list[str] = []
    for k, (increments, coeffs, layout, label) in enumerate(moves, start=1):
        head, free = layout[:3], layout[3:]
        new_r = r[:]
        for i, d in zip(free, increments):
            new_r[i] += d
        for i, x in zip(head, coeffs.apply([new_r[i] for i in free]).tolist()):
            new_r[i] = x
        new_w = [new_r[i] * f for i, f in zip(source, factor)]
        if any(x <= 0.0 for x in new_w):
            termination = TerminationReason.NONPOSITIVE_WEIGHT
            break
        radii = [scale * x for x in new_w]
        if first_touching_pair(centers, radii) is not None:
            termination = TerminationReason.OVERLAP
            break
        pattern = _pattern(weights, new_w, total)
        if any(d > 0.0 for d in increments):
            response = _pattern([r[i] for i in head], [new_r[i] for i in head], total)
            if response != _RESPONSE:
                violations.append(
                    f"step {k}: pattern {''.join(p.value for p in pattern)} "
                    f"deviates from {expected}"
                )
        r, weights = new_r, new_w
        c = r[3] if composite else None
        steps.append(
            EvolutionStep(k, tuple(weights), tuple(radii), label, pattern, reduce(add, r), c)
        )
    return EvolutionTrace(
        type_tag=type_tag,
        steps=tuple(steps),
        config=config,
        scale=float(scale),
        point=point,
        termination=termination,
        pattern_violations=tuple(violations),
    )


def evolve_type_a(
    config: Configuration,
    increments: Sequence[tuple[float, float]] | None = None,
    scale: float | None = None,
    steps: int = 10,
) -> EvolutionTrace:
    """Grow branches 3 and 4 simultaneously, rebalancing weights 0..2.

    Each step adds the scheduled increments to weights 3 and 4 and maps the
    first three weights through the constant-sum transfer coefficients, so
    the five-weight total is conserved exactly. Expected response: weight 1
    up, weights 0 and 2 down.
    """
    point, layout, _ = _prepare(config)
    if increments is None:
        increments = [(d, d) for d in _default_schedule(config, steps)]
    r = config.weights_array().tolist()
    coeffs = transfer_coefficients(TriangleRatios.from_angles(layout), n=5, total=reduce(add, r))
    labels = [0, 1, 2, 3, 4]
    moves = (
        ((d3, d4), coeffs, labels, f"branches 3,4 +({d3:.6g},{d4:.6g})")
        for d3, d4 in increments
    )
    return _evolve(EvolutionType.TYPE_A, config, point, scale, r, labels, [1.0] * 5, moves)


def evolve_type_b(
    config: Configuration,
    schedule: Sequence[float] | None = None,
    scale: float | None = None,
    steps: int = 10,
) -> EvolutionTrace:
    """Alternate growth of the composite ray (3+4) and of ray 1.

    Rays 3 and 4 are merged into their weighted vector sum, giving the
    reduced quadrilateral on rays (0, 1, 2, composite). Odd steps grow the
    composite magnitude m, even steps grow weight 1; the other three reduced
    weights rebalance through the four-ray transfer coefficients, so the
    reduced sum w0 + w1 + w2 + m is conserved exactly. Expected response:
    weights 0 and 2 down, weight 1 and the composite up.
    """
    point, layout, rays = _prepare(config)
    if schedule is None:
        schedule = _default_schedule(config, steps)
    w = config.weights_array()
    m, u_c = compose_rays(w[3], rays[3], w[4], rays[4])
    if m <= 0.0:
        raise PreconditionViolated("rays 3 and 4 cancel exactly; composite undefined")
    # fixed split of the composite magnitude back onto rays 3 and 4
    split = np.linalg.solve(np.column_stack([rays[3], rays[4]]), u_c)
    if np.any(split <= 0.0):
        raise PreconditionViolated("composite direction leaves the cone of rays 3 and 4")

    r = [float(w[0]), float(w[1]), float(w[2]), m]
    total = reduce(add, r)
    # reduced rays: 0, 1, 2 and the composite as 3; triangle labels first
    azimuths = np.append(layout.azimuths[:3], math.atan2(u_c[1], u_c[0]))
    grow_c, grow_1 = [0, 1, 2, 3], [0, 3, 2, 1]
    coeffs_c, coeffs_1 = (
        transfer_coefficients(
            TriangleRatios.from_angles(SectorAngles(azimuths[labels])), n=4, total=total
        )
        for labels in (grow_c, grow_1)
    )
    moves = (
        ((d,), coeffs_c, grow_c, f"composite(3,4) +{d:.6g}")
        if k % 2 == 0
        else ((d,), coeffs_1, grow_1, f"branch 1 +{d:.6g}")
        for k, d in enumerate(schedule)
    )
    factor = [1.0, 1.0, 1.0, *split.tolist()]
    return _evolve(
        EvolutionType.TYPE_B, config, point, scale, r, [0, 1, 2, 3, 3], factor, moves
    )
