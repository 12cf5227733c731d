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

from .errors import PreconditionViolated, checked_number, checked_numbers
from .geometry import Configuration, Point2, pair_distances
from .plasticity import SectorAngles, TriangleRatios, transfer_coefficients
from .solver import SolveResult, solve

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
    total = reduce(add, config.weights)  # in index order: ``sum`` compensates from Python 3.12
    return [0.01 * total * 0.9**k for k in range(steps)]


def compose_rays(
    w_a: float, dir_a: Sequence[float], w_b: float, dir_b: Sequence[float]
) -> tuple[float, tuple[float, float]]:
    """Magnitude and direction of the weighted vector sum of two unit rays.

    Opposite collinear rays give magnitude |w_a - w_b|. The sum is taken on
    the weights scaled by the power of two of the larger |w|, so it cannot
    overflow; the magnitude is scaled back, and is inf only when it lies
    beyond the float range. The rays cancel when the scaled magnitude is at
    most 1e-15 of its largest value, the sum of the scaled |w|, so the test
    does not depend on the weight scale; the direction is undefined then
    and (1, 0) is returned with magnitude 0. Raises InvalidConfiguration,
    naming the argument, on a weight that is not a finite number or a
    direction that is not a pair of them.
    """
    w_a, w_b = checked_number(w_a, "w_a"), checked_number(w_b, "w_b")
    dir_a = checked_numbers(dir_a, 2, "dir_a component", "dir_a components")
    dir_b = checked_numbers(dir_b, 2, "dir_b component", "dir_b components")
    e = math.frexp(max(abs(w_a), abs(w_b)))[1]
    a, b = math.ldexp(w_a, -e), math.ldexp(w_b, -e)
    x = a * dir_a[0] + b * dir_b[0]
    y = a * dir_a[1] + b * dir_b[1]
    m = math.hypot(x, y)
    if m <= 1e-15 * (abs(a) + abs(b)):
        return 0.0, (1.0, 0.0)
    u = (x / m, y / m)
    try:
        return math.ldexp(m, e), u
    except OverflowError:  # the magnitude lies beyond the float range
        return math.inf, u


def _prepare(config: Configuration) -> tuple[SolveResult, SectorAngles]:
    """Solve, check the pentagon preconditions, return the solution and its ray layout."""
    if config.n != 5:
        raise PreconditionViolated(f"evolution is defined for 5 circles, got {config.n}")
    base = solve(config)
    if not base.case.is_floating:
        raise PreconditionViolated("evolution requires a floating instance")
    layout = SectorAngles.from_result(base)
    # growing branches (labels 3, 4) must lie in the sector from ray 2 to
    # ray 0 that avoids ray 1, i.e. the input labels run around the point
    if not layout.label_orientation():
        order = list(base.sector_order)
        k = order.index(0)
        raise PreconditionViolated(
            f"circle labels must run around the point in order, got cycle {order[k:] + order[:k]}"
        )
    return base, layout


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

    The centers never move, so their distances are computed once, from the
    matrix that also sets the default scale. A step overlaps when some
    distance is at most ``r_i + r_j``: the decision of
    ``first_touching_pair``, which compares the same ``np.hypot`` values.
    """
    dist = pair_distances(config.centers_array())
    if scale is None:
        # the largest initial radius is 10% of the closest center pair
        scale = 0.1 * float(dist.min()) / max(config.weights)
    scale = checked_number(scale, "radius scale", positive=True)
    pairs = [(i, j, d) for i, row in enumerate(dist.tolist()) for j, d in enumerate(row) if i < j]
    composite = type_tag is EvolutionType.TYPE_B
    expected = "the expected quadrilateral response" if composite else "-+-++"
    total = reduce(add, r)
    eps = _CHANGE_EPS * total
    up, down, same = WeightChange.INCREASED, WeightChange.DECREASED, WeightChange.UNCHANGED

    def pattern_of(prev: list[float], new: list[float]) -> tuple[WeightChange, ...]:
        return tuple(up if b - a > eps else down if a - b > eps else same for a, b in zip(prev, new))

    weights = list(config.weights)
    radii = [scale * x for x in weights]
    c = r[3] if composite else None
    steps = [EvolutionStep(0, tuple(weights), tuple(radii), "initial", (same,) * 5, total, c)]
    termination = TerminationReason.SCHEDULE_EXHAUSTED
    violations: list[str] = []
    for k, (increments, coeffs, layout, label) in enumerate(moves, start=1):
        head, free = layout[:3], layout[3:]
        new_r = r[:]
        for i, d in zip(free, increments):
            new_r[i] += d
        for i, x in zip(head, coeffs.triangle_weights([new_r[i] for i in free])):
            new_r[i] = x
        new_w = [new_r[i] * f for i, f in zip(source, factor)]
        if any(x <= 0.0 for x in new_w):
            termination = TerminationReason.NONPOSITIVE_WEIGHT
            break
        radii = [scale * x for x in new_w]
        if any(d <= radii[i] + radii[j] for i, j, d in pairs):
            termination = TerminationReason.OVERLAP
            break
        pattern = pattern_of(weights, new_w)
        if any(d > 0.0 for d in increments):
            response = pattern_of([r[i] for i in head], [new_r[i] for i in head])
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
        scale=scale,
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
    if increments is not None:
        increments = [
            checked_numbers(
                pair, 2, f"schedule entry {k} increment", f"increments in schedule entry {k}"
            )
            for k, pair in enumerate(increments)
        ]
    base, layout = _prepare(config)
    if increments is None:
        increments = [(d, d) for d in _default_schedule(config, steps)]
    r = list(config.weights)
    coeffs = transfer_coefficients(TriangleRatios.from_angles(layout), n=5, total=reduce(add, r))
    labels = [0, 1, 2, 3, 4]
    moves = (
        ((d3, d4), coeffs, labels, f"branches 3,4 +({d3:.6g},{d4:.6g})")
        for d3, d4 in increments
    )
    return _evolve(EvolutionType.TYPE_A, config, base.point, scale, r, labels, [1.0] * 5, moves)


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
    if schedule is not None:
        schedule = [checked_number(d, f"schedule entry {k}") for k, d in enumerate(schedule)]
    base, _ = _prepare(config)
    if schedule is None:
        schedule = _default_schedule(config, steps)
    w = config.weights
    az = base.ray_azimuths
    x3, y3 = math.cos(az[3]), math.sin(az[3])
    x4, y4 = math.cos(az[4]), math.sin(az[4])
    m, (ux, uy) = compose_rays(w[3], (x3, y3), w[4], (x4, y4))
    if m <= 0.0:
        raise PreconditionViolated("rays 3 and 4 cancel exactly; composite undefined")
    # fixed split of the composite magnitude back onto rays 3 and 4: the
    # solution s of s3 * ray3 + s4 * ray4 = u by Cramer's rule
    det = x3 * y4 - x4 * y3
    if det == 0.0:
        raise PreconditionViolated("rays 3 and 4 are collinear; composite split undefined")
    split = [(ux * y4 - x4 * uy) / det, (x3 * uy - ux * y3) / det]
    if min(split) <= 0.0:
        raise PreconditionViolated("composite direction leaves the cone of rays 3 and 4")

    r = [w[0], w[1], w[2], m]
    total = reduce(add, r)
    # reduced rays: 0, 1, 2 and the composite as 3; triangle labels first
    azimuths = [*az[:3], math.atan2(uy, ux)]
    grow_c, grow_1 = [0, 1, 2, 3], [0, 3, 2, 1]
    coeffs_c, coeffs_1 = (
        transfer_coefficients(
            TriangleRatios.from_angles(SectorAngles([azimuths[i] for i in labels])),
            n=4,
            total=total,
        )
        for labels in (grow_c, grow_1)
    )
    moves = (
        ((d,), coeffs_c, grow_c, f"composite(3,4) +{d:.6g}")
        if k % 2 == 0
        else ((d,), coeffs_1, grow_1, f"branch 1 +{d:.6g}")
        for k, d in enumerate(schedule)
    )
    factor = [1.0, 1.0, 1.0, *split]
    return _evolve(
        EvolutionType.TYPE_B, config, base.point, scale, r, [0, 1, 2, 3, 3], factor, moves
    )
