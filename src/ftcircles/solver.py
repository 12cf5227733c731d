"""Weighted Fermat-Torricelli solver for circle configurations.

The minimizer of ``sum_i w_i * d(P, circle_i)`` over the region outside all
disks coincides with the classic weighted Fermat-Torricelli point of the
centers, because subtracting the radii is a constant shift there. The solver
classifies the floating/absorbed case first, runs one damped Newton loop on
the centers (see ``_minimize``), and assembles a full geometric certificate
(projections, sector angles, equilibrium residual) afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CalledOnAbsorbed,
    DegenerateProjection,
    NonConvergence,
    SolutionInsideDisk,
)
from .geometry import (
    COINCIDENT_EPS,
    Configuration,
    Point2,
    azimuths_at,
    cosine_matrix,
    distances_to_circles,
    pair_distances,
    sectors_of,
)

DEFAULT_MAX_ITERS = 10000
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CaseTag:
    """Floating interior solution, or solution absorbed at center ``index``."""

    kind: str
    index: int | None = None

    @staticmethod
    def floating() -> "CaseTag":
        return CaseTag("floating")

    @staticmethod
    def absorbed(index: int) -> "CaseTag":
        return CaseTag("absorbed", index)

    @property
    def is_floating(self) -> bool:
        return self.kind == "floating"

    def __str__(self) -> str:
        if self.is_floating:
            return "floating"
        return f"absorbed(at={self.index})"


@dataclass(frozen=True)
class SolveResult:
    """Solution point with its geometric certificate.

    ``ray_azimuths`` are the polar angles of the rays from the point to the
    projection points, in input order; every angle of the certificate is
    derived from them. ``sector_angles`` are the consecutive counterclockwise
    angles between those rays, aligned with ``sector_order`` (input indices
    sorted by azimuth). All three are empty for an absorbed solution, which
    carries no angle certificate.
    """

    point: Point2
    projections: tuple[Point2, ...]
    distances: tuple[float, ...]
    sector_angles: tuple[float, ...]
    sector_order: tuple[int, ...]
    objective: float
    case: CaseTag
    equilibrium_residual: float
    iterations: int = 0
    ray_azimuths: tuple[float, ...] = ()


def resultant_norms(config: Configuration) -> np.ndarray:
    """Norm of the pull ``sum_{j!=i} w_j u(A_i, A_j)`` at every center."""
    centers = config.centers_array()
    weights = config.weights_array()
    diff = centers[None, :, :] - centers[:, None, :]
    pull = (weights[None, :, None] * diff / pair_distances(centers)[:, :, None]).sum(axis=1)
    return np.hypot(pull[:, 0], pull[:, 1])

def classify_case(config: Configuration) -> CaseTag:
    """Floating when every center's pull exceeds its own weight.

    Returns the absorbed tag for the first index where
    ``||sum_{j!=i} w_j u(A_i, A_j)|| <= w_i``.
    """
    norms = resultant_norms(config)
    for i, w in enumerate(config.weights):
        if norms[i] <= w:
            return CaseTag.absorbed(i)
    return CaseTag.floating()


def _equilibrium_gradient(p: np.ndarray, centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Resultant ``sum w_i u(P, A_i)``; zero exactly at the floating point."""
    diff = centers - p
    d = np.linalg.norm(diff, axis=1)
    return (weights[:, None] * diff / d[:, None]).sum(axis=0)


def _minimize(
    centers: np.ndarray,
    weights: np.ndarray,
    tol: float,
    max_iters: int,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """Minimize ``sum w_i |P - A_i|`` from the weighted centroid or ``initial``.

    Returns (point, steps taken, residual). Each step is the damped Newton
    step, or the Weiszfeld map when backtracking accepts no Newton point. An
    iterate on a center gets the single-point optimality test; if the center
    is not optimal, the Vardi-Zhang step moves it off along the pull of the
    other centers. The iteration stops when both the last step and the
    equilibrium residual are small.

    The next point depends only on the current one, so an iterate equal to
    the previous point or the one before it repeats forever: that raises
    NonConvergence at once instead of spending the rest of the budget.
    """
    if initial is None:
        p = (weights[:, None] * centers).sum(axis=0) / weights.sum()
    else:
        p = np.asarray(initial, dtype=float).copy()
    diff, d = _offsets(centers, p)
    step = residual = math.inf
    prev = prev2 = None
    for it in range(max_iters + 1):
        hit = int(d.argmin())
        on_center = d[hit] < COINCIDENT_EPS
        if not on_center:
            e = diff / d[:, None]
            grad = (-(weights @ e)).tolist()
            residual = math.hypot(*grad)
            if step < tol and residual < 10.0 * tol:
                return p, it, residual
        if _same(p, prev) or _same(p, prev2):
            raise NonConvergence(
                f"iteration revisits a point after {it} steps without reaching "
                f"tolerance {tol} (step {step:.3e}, residual {residual:.3e})"
            )
        if it == max_iters:
            break
        accepted = None
        if on_center:
            rest = np.delete(np.arange(len(centers)), hit)
            pull = _equilibrium_gradient(centers[hit], centers[rest], weights[rest])
            pull_norm = float(np.linalg.norm(pull))
            if pull_norm <= weights[hit]:
                # center itself optimal: absorbed, caller classifies
                return centers[hit].copy(), it, 0.0
            inv = weights[rest] / d[rest]
            new_p = centers[hit] + (1.0 - weights[hit] / pull_norm) * pull / inv.sum()
        else:
            accepted = _newton_step(p, d, e, grad, residual, hit, centers, weights)
            if accepted is None:
                inv = weights / d
                new_p = (inv @ centers) / inv.sum()
            else:
                new_p, diff, d = accepted
        step = math.hypot(new_p[0] - p[0], new_p[1] - p[1])
        prev2, prev, p = prev, p, new_p
        if accepted is None:
            diff, d = _offsets(centers, p)
    raise NonConvergence(
        f"iteration did not reach tolerance {tol} in {max_iters} steps "
        f"(residual {residual:.3e})"
    )


def _offsets(centers: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``centers - p`` and its row lengths."""
    diff = centers - p
    return diff, np.hypot(diff[:, 0], diff[:, 1])


def _same(p: np.ndarray, q: np.ndarray | None) -> bool:
    return q is not None and p[0] == q[0] and p[1] == q[1]


def _newton_step(p, d, e, grad, residual, hit, centers, weights):
    """Damped Newton point from p on the closed-form 2x2 Hessian, or None.

    A candidate is accepted when it does not raise the objective, or when it
    lowers the gradient norm and raises the objective by no more than the
    rounding error of its sum. When the full step reaches the nearest
    center ``hit``, where the objective has a kink the Newton model cannot
    see, the center itself is tried first. ``grad`` is the gradient at p as
    two floats. Returns the accepted point with its ``centers - point`` and
    distances, which the next step reuses, or None when backtracking
    accepted nothing.
    """
    k = weights / d
    ex, ey = e.T
    h_xx = float(k @ (1.0 - ex ** 2))
    h_yy = float(k @ (1.0 - ey ** 2))
    h_xy = -float(k @ (ex * ey))
    det = h_xx * h_yy - h_xy * h_xy
    if det <= 0.0:
        return None
    gx, gy = grad
    delta_x = (-gx * h_yy + gy * h_xy) / det
    delta_y = (-gy * h_xx + gx * h_xy) / det
    f = float(weights @ d)
    if math.hypot(delta_x, delta_y) >= d[hit]:
        diff, d_cand = _offsets(centers, centers[hit])
        if weights @ d_cand <= f:
            return centers[hit], diff, d_cand
    slack = len(d) * _EPS * f
    delta = np.array([delta_x, delta_y])
    t = 1.0
    for _ in range(40):
        cand = p + t * delta
        diff, d_cand = _offsets(centers, cand)
        f_cand = float(weights @ d_cand)
        if f_cand <= f:
            return cand, diff, d_cand
        if f_cand - f <= slack and d_cand.min() >= COINCIDENT_EPS:
            g = weights @ (diff / d_cand[:, None])
            if math.hypot(g[0], g[1]) < residual:
                return cand, diff, d_cand
        t *= 0.5
    return None


def solve(
    config: Configuration,
    max_iters: int = DEFAULT_MAX_ITERS,
    initial: Point2 | None = None,
) -> SolveResult:
    """Solve the weighted minimum-distance-sum problem for the configuration.

    Floating case: the solver loop on the centers, started from the weighted
    centroid or from ``initial``, then projections, consecutive sector
    angles, objective with radii subtracted, and the equilibrium residual.
    ``iterations`` counts the steps of the loop. Raises NonConvergence when
    ``max_iters`` steps do not meet the convergence test, and
    SolutionInsideDisk if the center-problem minimizer falls strictly inside
    some disk, where the curve-distance theory does not apply.

    Absorbed case: the point is the absorbing center; distances and
    projections are computed from it and no angle certificate is produced.

    Each configuration is solved once: a call with the default ``max_iters``
    and no ``initial`` stores its result on the (immutable) configuration,
    and later such calls return that same object. Calls with other
    arguments always compute and never store. Errors are never stored, so a
    failing call raises again. Pickled and deep-copied configurations start
    without a stored result.
    """
    default = max_iters == DEFAULT_MAX_ITERS and initial is None
    if default and config._solved is not None:
        return config._solved
    result = _solve(config, max_iters, initial)
    if default:
        object.__setattr__(config, "_solved", result)
    return result


def _solve(config: Configuration, max_iters: int, initial: Point2 | None) -> SolveResult:
    case = classify_case(config)
    if not case.is_floating:
        return _absorbed_result(config, case.index)

    weights = config.weights_array()
    start = initial.as_array() if initial is not None else None
    p, iters, residual = _minimize(
        config.centers_array(), weights, config.tolerance, max_iters, start
    )

    offsets, d = _point_offsets(config, p)
    inside = np.flatnonzero(d < config.radii_array())
    if inside.size:
        raise SolutionInsideDisk(int(inside[0]))
    point = Point2.from_array(p)
    projections = _projections(config, offsets, d)
    distances = distances_to_circles(d, config.radii_array(), config.distance_mode)
    azimuths = azimuths_at(point, projections)
    order, sectors = sectors_of(azimuths)
    return SolveResult(
        point=point,
        projections=projections,
        distances=tuple(distances.tolist()),
        sector_angles=sectors,
        sector_order=order,
        objective=float(np.dot(weights, distances)),
        case=case,
        equilibrium_residual=residual,
        iterations=iters,
        ray_azimuths=tuple(azimuths.tolist()),
    )


def _absorbed_result(config: Configuration, m: int) -> SolveResult:
    point = config.circles[m].center
    centers = config.centers_array()
    weights = config.weights_array()
    rest = np.delete(np.arange(config.n), m)
    pull = _equilibrium_gradient(centers[m], centers[rest], weights[rest])
    pull_norm = float(np.linalg.norm(pull))

    offsets, d = _point_offsets(config, centers[m])
    distances = distances_to_circles(d, config.radii_array(), config.distance_mode)
    # projection of the center onto its own circle is not unique; report
    # the circle point in the pull direction, a unit offset along it
    offsets[m] = pull / pull_norm if pull_norm > 0 else (1.0, 0.0)
    d[m] = 1.0
    return SolveResult(
        point=point,
        projections=_projections(config, offsets, d),
        distances=tuple(distances.tolist()),
        sector_angles=(),
        sector_order=(),
        objective=float(np.dot(weights, distances)),
        case=CaseTag.absorbed(m),
        equilibrium_residual=max(0.0, pull_norm - weights[m]),
        iterations=0,
    )


def _point_offsets(config: Configuration, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets ``p - center`` of every circle, as an (n, 2) array, and their lengths.

    The lengths use ``math.hypot``, as ``Point2.distance_to`` does: numpy's
    ``hypot`` can differ from it in the last bit, which would move the
    reported distances and objective.
    """
    offsets = p - config.centers_array()
    return offsets, np.array([math.hypot(x, y) for x, y in offsets.tolist()])


def _projections(config: Configuration, offsets: np.ndarray, d: np.ndarray) -> tuple[Point2, ...]:
    """Each circle's point at its radius along ``offsets`` (of lengths ``d``).

    For the offsets of a point these are its projections onto the circles,
    computed as ``project_onto_circle`` does.
    """
    if d.min() < COINCIDENT_EPS:
        raise DegenerateProjection("projection of the center onto its circle is not unique")
    points = config.centers_array() + (config.radii_array() / d)[:, None] * offsets
    return tuple(Point2(x, y) for x, y in points.tolist())


def certificate_residuals(result: SolveResult, config: Configuration) -> list[float]:
    """Cosine equilibrium residuals ``w_i + sum_{j!=i} w_j cos(angle_ij)``.

    The cosines come from the result's ray azimuths. All residuals vanish at
    the true floating minimizer. Raises CalledOnAbsorbed for absorbed
    results, which have no angle certificate.
    """
    if not result.case.is_floating:
        raise CalledOnAbsorbed("cosine residuals require a floating solution")
    return (cosine_matrix(result.ray_azimuths) @ config.weights_array()).tolist()
