"""Evolution traces of five weighted circles with radii scaled to weights.

The centers stay fixed at a convex pentagon and every state in a trace is an
equilibrium weight vector for the same branching point, so rays and transfer
coefficients are computed once. Radii follow the weights through a single
global scale, and a trace terminates when circles would touch, when a weight
would drop to zero, or when the schedule runs out.

Type A grows the two branches in the sector between rays 3 and 1 (0-based
labels 3 and 4) simultaneously. Type B alternates between growing the
composite of rays 3 and 4 (their weighted vector sum, a single ray of the
reduced quadrilateral) and growing ray 1, never both in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import PreconditionViolated
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


def default_schedule(config: Configuration, steps: int) -> list[float]:
    """Geometrically decaying increments: 0.01 * total * 0.9**k."""
    total = sum(config.weights)
    return [0.01 * total * 0.9**k for k in range(steps)]


def default_scale(config: Configuration) -> float:
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


def _pattern(prev: np.ndarray, new: np.ndarray, total: float) -> tuple[WeightChange, ...]:
    out = []
    for a, b in zip(prev, new):
        if b - a > _CHANGE_EPS * total:
            out.append(WeightChange.INCREASED)
        elif a - b > _CHANGE_EPS * total:
            out.append(WeightChange.DECREASED)
        else:
            out.append(WeightChange.UNCHANGED)
    return tuple(out)


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


def evolve_type_a(
    config: Configuration,
    increments: Sequence[tuple[float, float]] | None = None,
    scale: float | None = None,
    steps: int = 10,
) -> EvolutionTrace:
    """Grow branches 3 and 4 simultaneously, rebalancing weights 0..2.

    Each step adds the scheduled increments to weights 3 and 4 and maps the
    first three weights through the constant-sum transfer coefficients, so
    the five-weight total is conserved exactly. The expected response
    (weight 1 up, weights 0 and 2 down) is recorded; violations become
    diagnostics on the trace, not failures.
    """
    point, layout, _ = _prepare(config)
    if increments is None:
        deltas = default_schedule(config, steps)
        increments = [(d, d) for d in deltas]
    if scale is None:
        scale = default_scale(config)

    w = config.weights_array()
    total = float(w.sum())
    coeffs = transfer_coefficients(TriangleRatios.from_angles(layout), n=5, total=total)
    violations: list[str] = []
    radii = scale * w
    steps_out = [
        EvolutionStep(
            step=0,
            weights=tuple(w),
            radii=tuple(radii),
            active_branches="initial",
            pattern=tuple([WeightChange.UNCHANGED] * 5),
            conserved_sum=total,
        )
    ]
    termination = TerminationReason.SCHEDULE_EXHAUSTED
    for k, (d4, d5) in enumerate(increments, start=1):
        free = np.array([w[3] + d4, w[4] + d5])
        new_w = coeffs.apply(free)
        if np.any(new_w <= 0.0):
            termination = TerminationReason.NONPOSITIVE_WEIGHT
            break
        new_radii = scale * new_w
        if first_touching_pair(config.centers_array(), new_radii) is not None:
            termination = TerminationReason.OVERLAP
            break
        pattern = _pattern(w, new_w, total)
        if d4 > 0.0 or d5 > 0.0:
            expected = (
                WeightChange.DECREASED,
                WeightChange.INCREASED,
                WeightChange.DECREASED,
            )
            if pattern[:3] != expected:
                violations.append(
                    f"step {k}: pattern {''.join(p.value for p in pattern)} "
                    f"deviates from -+-++"
                )
        w = new_w
        radii = new_radii
        steps_out.append(
            EvolutionStep(
                step=k,
                weights=tuple(w),
                radii=tuple(radii),
                active_branches=f"branches 3,4 +({d4:.6g},{d5:.6g})",
                pattern=pattern,
                conserved_sum=float(w.sum()),
            )
        )
    return EvolutionTrace(
        type_tag=EvolutionType.TYPE_A,
        steps=tuple(steps_out),
        config=config,
        scale=float(scale),
        point=point,
        termination=termination,
        pattern_violations=tuple(violations),
    )


def evolve_type_b(
    config: Configuration,
    schedule: Sequence[float] | None = None,
    scale: float | None = None,
    steps: int = 10,
) -> EvolutionTrace:
    """Alternate growth of the composite ray (3+4) and of ray 1.

    Rays 3 and 4 are merged into their weighted vector sum, giving the
    reduced quadrilateral on rays (0, 1, 2, composite). Even steps grow the
    composite magnitude, odd steps grow weight 1; the other three reduced
    weights rebalance through the four-ray transfer coefficients, so the
    reduced sum w0 + w1 + w2 + m is conserved exactly. The composite is then
    split back onto rays 3 and 4 along their fixed directions. Expected
    response: weights 0 and 2 decrease while weight 1 and the composite
    increase; deviations are recorded as diagnostics.
    """
    point, layout, rays = _prepare(config)
    azimuths = layout.azimuths
    if schedule is None:
        schedule = default_schedule(config, steps)
    if scale is None:
        scale = default_scale(config)

    w = config.weights_array()
    m, u_c = compose_rays(w[3], rays[3], w[4], rays[4])
    if m <= 0.0:
        raise PreconditionViolated("rays 3 and 4 cancel exactly; composite undefined")
    theta_c = math.atan2(u_c[1], u_c[0])
    # fixed split of the composite magnitude back onto rays 3 and 4
    split = np.linalg.solve(np.column_stack([rays[3], rays[4]]), u_c)
    if np.any(split <= 0.0):
        raise PreconditionViolated("composite direction leaves the cone of rays 3 and 4")

    reduced_total = float(w[0] + w[1] + w[2] + m)
    # label layouts for the two alternating moves; triangle labels first
    coeffs_grow_c = transfer_coefficients(
        TriangleRatios.from_angles(
            SectorAngles([azimuths[0], azimuths[1], azimuths[2], theta_c])
        ),
        n=4,
        total=reduced_total,
    )
    coeffs_grow_1 = transfer_coefficients(
        TriangleRatios.from_angles(
            SectorAngles([azimuths[0], theta_c, azimuths[2], azimuths[1]])
        ),
        n=4,
        total=reduced_total,
    )

    violations: list[str] = []
    radii = scale * w
    steps_out = [
        EvolutionStep(
            step=0,
            weights=tuple(w),
            radii=tuple(radii),
            active_branches="initial",
            pattern=tuple([WeightChange.UNCHANGED] * 5),
            conserved_sum=reduced_total,
            composite_weight=m,
        )
    ]
    termination = TerminationReason.SCHEDULE_EXHAUSTED
    for k, delta in enumerate(schedule, start=1):
        if (k - 1) % 2 == 0:
            new_m = m + delta
            w0, w1, w2 = coeffs_grow_c.apply([new_m])[:3]
            active = f"composite(3,4) +{delta:.6g}"
        else:
            new_w1 = w[1] + delta
            w0, new_m, w2 = coeffs_grow_1.apply([new_w1])[:3]
            w1 = new_w1
            active = f"branch 1 +{delta:.6g}"
        w3, w4 = split * new_m
        new_w = np.array([w0, w1, w2, w3, w4])
        if np.any(new_w <= 0.0) or new_m <= 0.0:
            termination = TerminationReason.NONPOSITIVE_WEIGHT
            break
        new_radii = scale * new_w
        if first_touching_pair(config.centers_array(), new_radii) is not None:
            termination = TerminationReason.OVERLAP
            break
        pattern = _pattern(w, new_w, reduced_total)
        if delta > 0.0:
            bad = (
                pattern[0] != WeightChange.DECREASED
                or pattern[2] != WeightChange.DECREASED
                or pattern[1] == WeightChange.DECREASED
                or new_m < m
            )
            if bad:
                violations.append(
                    f"step {k}: pattern {''.join(p.value for p in pattern)} "
                    f"deviates from the expected quadrilateral response"
                )
        w = new_w
        m = new_m
        radii = new_radii
        steps_out.append(
            EvolutionStep(
                step=k,
                weights=tuple(w),
                radii=tuple(radii),
                active_branches=active,
                pattern=pattern,
                conserved_sum=float(w[0] + w[1] + w[2] + m),
                composite_weight=float(m),
            )
        )
    return EvolutionTrace(
        type_tag=EvolutionType.TYPE_B,
        steps=tuple(steps_out),
        config=config,
        scale=float(scale),
        point=point,
        termination=termination,
        pattern_violations=tuple(violations),
    )
