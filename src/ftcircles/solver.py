"""Weighted Fermat-Torricelli solver for circle configurations.

The minimizer of ``sum_i w_i * d(P, circle_i)`` over the region outside all
disks coincides with the classic weighted Fermat-Torricelli point of the
centers, because subtracting the radii is a constant shift there. The solver
therefore runs a Weiszfeld fixed-point iteration on the centers, classifies
the floating/absorbed case first, and assembles a full geometric certificate
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


def _objective_points(p: np.ndarray, centers: np.ndarray, weights: np.ndarray) -> float:
    return float(weights @ np.linalg.norm(centers - p, axis=1))


def _newton_polish(
    p: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    tol: float,
    iters: int,
) -> tuple[np.ndarray, float, float]:
    """Damped Newton steps on the smooth center objective.

    Returns (point, last step length, residual). Stops early at centers or
    when backtracking cannot make progress; the caller falls back to the
    fixed-point iteration then.
    """
    step = math.inf
    f = _objective_points(p, centers, weights)
    residual = float(np.linalg.norm(_equilibrium_gradient(p, centers, weights)))
    for _ in range(iters):
        diff = centers - p
        d = np.linalg.norm(diff, axis=1)
        if d.min() < 1e3 * COINCIDENT_EPS:
            break
        e = diff / d[:, None]
        grad = -(weights[:, None] * e).sum(axis=0)
        k = weights / d
        h_xx = float(np.sum(k * (1.0 - e[:, 0] ** 2)))
        h_yy = float(np.sum(k * (1.0 - e[:, 1] ** 2)))
        h_xy = float(np.sum(k * (-e[:, 0] * e[:, 1])))
        det = h_xx * h_yy - h_xy * h_xy
        if det <= 0.0:
            break
        delta = np.array(
            [(-grad[0] * h_yy + grad[1] * h_xy) / det,
             (-grad[1] * h_xx + grad[0] * h_xy) / det]
        )
        t = 1.0
        improved = False
        for _ in range(40):
            cand = p + t * delta
            d_cand = np.linalg.norm(centers - cand, axis=1)
            if d_cand.min() >= 1e3 * COINCIDENT_EPS:
                f_cand = _objective_points(cand, centers, weights)
                if f_cand <= f:
                    p = cand
                    f = f_cand
                    step = t * float(np.linalg.norm(delta))
                    improved = True
                    break
            t *= 0.5
        if not improved:
            break
        residual = float(np.linalg.norm(_equilibrium_gradient(p, centers, weights)))
        if step < tol and residual < 10.0 * tol:
            break
    return p, step, residual


def _weiszfeld(
    centers: np.ndarray,
    weights: np.ndarray,
    tol: float,
    max_iters: int,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float]:
    """Weiszfeld iteration with center-collision handling and Newton polish.

    Convergence requires both a small step and a small equilibrium residual.
    When an iterate lands on a center, the single-point optimality test is
    applied; if the center is not optimal, the iterate steps off along the
    resultant (descent) direction. The fixed-point rate degrades near the
    absorbed boundary, so a damped Newton polish is interleaved; it shares
    the same convergence test and never accepts an objective increase.
    """
    if initial is None:
        p = (weights[:, None] * centers).sum(axis=0) / weights.sum()
    else:
        p = np.asarray(initial, dtype=float).copy()
    pair_min = pair_distances(centers).min()
    residual = math.inf
    for it in range(1, max_iters + 1):
        diff = centers - p
        d = np.linalg.norm(diff, axis=1)
        hit = int(np.argmin(d))
        if d[hit] < COINCIDENT_EPS:
            rest = np.delete(np.arange(len(centers)), hit)
            pull = _equilibrium_gradient(centers[hit], centers[rest], weights[rest])
            pull_norm = float(np.linalg.norm(pull))
            if pull_norm <= weights[hit]:
                # center itself optimal: absorbed, caller classifies
                return centers[hit].copy(), it, 0.0
            p = centers[hit] + 1e-3 * pair_min * pull / pull_norm
            continue
        inv = weights / d
        new_p = (inv[:, None] * centers).sum(axis=0) / inv.sum()
        step = float(np.linalg.norm(new_p - p))
        p = new_p
        residual = float(np.linalg.norm(_equilibrium_gradient(p, centers, weights)))
        if step < tol and residual < 10.0 * tol:
            return p, it, residual
        if it % 16 == 0:
            p, step, residual = _newton_polish(p, centers, weights, tol, iters=40)
            if step < tol and residual < 10.0 * tol:
                return p, it, residual
    if residual < 10.0 * tol:
        return p, max_iters, residual
    raise NonConvergence(
        f"iteration did not reach tolerance {tol} in {max_iters} steps "
        f"(residual {residual:.3e})"
    )


def solve(
    config: Configuration,
    max_iters: int = DEFAULT_MAX_ITERS,
    initial: Point2 | None = None,
) -> SolveResult:
    """Solve the weighted minimum-distance-sum problem for the configuration.

    Floating case: Weiszfeld iteration on the centers, then projections,
    consecutive sector angles, objective with radii subtracted, and the
    equilibrium residual. Raises SolutionInsideDisk if the center-problem
    minimizer falls strictly inside some disk, where the curve-distance
    theory does not apply.

    Absorbed case: the point is the absorbing center; distances and
    projections are computed from it and no angle certificate is produced.
    """
    case = classify_case(config)
    if not case.is_floating:
        return _absorbed_result(config, case.index)

    centers = config.centers_array()
    weights = config.weights_array()
    start = initial.as_array() if initial is not None else None
    p, iters, residual = _weiszfeld(centers, weights, config.tolerance, max_iters, start)

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
