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
    NonConvergence,
    SolutionInsideDisk,
)
from .geometry import (
    COINCIDENT_EPS,
    Configuration,
    Point2,
    azimuths_at,
    cosine_matrix,
    distance_to_circle,
    pair_distances,
    project_onto_circle,
    sectors_of,
)

DEFAULT_MAX_ITERS = 10000


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
    """
    if initial is None:
        p = (weights[:, None] * centers).sum(axis=0) / weights.sum()
    else:
        p = np.asarray(initial, dtype=float).copy()
    step = residual = math.inf
    for it in range(max_iters + 1):
        diff = centers - p
        d = np.hypot(diff[:, 0], diff[:, 1])
        hit = int(np.argmin(d))
        on_center = d[hit] < COINCIDENT_EPS
        if not on_center:
            e = diff / d[:, None]
            grad = -(weights @ e)
            residual = math.hypot(grad[0], grad[1])
            if step < tol and residual < 10.0 * tol:
                return p, it, residual
        if it == max_iters:
            break
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
            new_p = _newton_step(p, d, e, grad, residual, centers, weights)
            if new_p is None:
                inv = weights / d
                new_p = (inv @ centers) / inv.sum()
        step = math.hypot(new_p[0] - p[0], new_p[1] - p[1])
        p = new_p
    raise NonConvergence(
        f"iteration did not reach tolerance {tol} in {max_iters} steps "
        f"(residual {residual:.3e})"
    )


def _newton_step(p, d, e, grad, residual, centers, weights) -> np.ndarray | None:
    """Damped Newton point from p on the closed-form 2x2 Hessian, or None.

    A candidate is accepted when it does not raise the objective, or when it
    lowers the gradient norm and raises the objective by no more than the
    rounding error of its sum. When the full step reaches the nearest
    center, where the objective has a kink the Newton model cannot see, the
    center itself is tried first. None means backtracking accepted nothing.
    """
    k = weights / d
    h_xx = float(k @ (1.0 - e[:, 0] ** 2))
    h_yy = float(k @ (1.0 - e[:, 1] ** 2))
    h_xy = -float(k @ (e[:, 0] * e[:, 1]))
    det = h_xx * h_yy - h_xy * h_xy
    if det <= 0.0:
        return None
    delta = np.array(
        [(-grad[0] * h_yy + grad[1] * h_xy) / det,
         (-grad[1] * h_xx + grad[0] * h_xy) / det]
    )
    f = float(weights @ d)
    hit = int(np.argmin(d))
    reaches_center = math.hypot(delta[0], delta[1]) >= d[hit]
    if reaches_center and weights @ np.hypot(*(centers - centers[hit]).T) <= f:
        return centers[hit]
    slack = len(d) * np.finfo(float).eps * f
    t = 1.0
    for _ in range(40):
        cand = p + t * delta
        diff = centers - cand
        d_cand = np.hypot(diff[:, 0], diff[:, 1])
        f_cand = float(weights @ d_cand)
        if f_cand <= f:
            return cand
        if f_cand - f <= slack and d_cand.min() >= COINCIDENT_EPS:
            g = weights @ (diff / d_cand[:, None])
            if math.hypot(g[0], g[1]) < residual:
                return cand
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
    """
    case = classify_case(config)
    if not case.is_floating:
        return _absorbed_result(config, case.index)

    centers = config.centers_array()
    weights = config.weights_array()
    start = initial.as_array() if initial is not None else None
    p, iters, residual = _minimize(centers, weights, config.tolerance, max_iters, start)

    for i, c in enumerate(config.circles):
        if Point2.from_array(p).distance_to(c.center) < c.radius:
            raise SolutionInsideDisk(i)

    point = Point2.from_array(p)
    projections = tuple(project_onto_circle(point, c) for c in config.circles)
    distances = tuple(
        distance_to_circle(point, c, config.distance_mode) for c in config.circles
    )
    objective = float(np.dot(weights, distances))
    azimuths = azimuths_at(point, projections)
    order, sectors = sectors_of(azimuths)
    return SolveResult(
        point=point,
        projections=projections,
        distances=distances,
        sector_angles=sectors,
        sector_order=order,
        objective=objective,
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

    projections = []
    for i, c in enumerate(config.circles):
        if i == m:
            # projection of the center onto its own circle is not unique;
            # report the circle point in the pull direction
            direction = pull / pull_norm if pull_norm > 0 else np.array([1.0, 0.0])
            projections.append(
                Point2(c.center.x + c.radius * direction[0], c.center.y + c.radius * direction[1])
            )
        else:
            projections.append(project_onto_circle(point, c))
    distances = tuple(
        distance_to_circle(point, c, config.distance_mode) for c in config.circles
    )
    objective = float(np.dot(weights, distances))
    return SolveResult(
        point=point,
        projections=tuple(projections),
        distances=distances,
        sector_angles=(),
        sector_order=(),
        objective=objective,
        case=CaseTag.absorbed(m),
        equilibrium_residual=max(0.0, pull_norm - weights[m]),
        iterations=0,
    )


def certificate_residuals(result: SolveResult, config: Configuration) -> list[float]:
    """Cosine equilibrium residuals ``w_i + sum_{j!=i} w_j cos(angle_ij)``.

    The cosines come from the result's ray azimuths. All residuals vanish at
    the true floating minimizer. Raises CalledOnAbsorbed for absorbed
    results, which have no angle certificate.
    """
    if not result.case.is_floating:
        raise CalledOnAbsorbed("cosine residuals require a floating solution")
    return (cosine_matrix(result.ray_azimuths) @ config.weights_array()).tolist()
