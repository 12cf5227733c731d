"""Weighted Fermat-Torricelli solver for circle configurations.

The minimizer of ``sum_i w_i * d(P, circle_i)`` over the region outside all
disks coincides with the classic weighted Fermat-Torricelli point of the
centers, because subtracting the radii is a constant shift there. The solver
runs one damped Newton loop on the centers (see ``_minimize``), takes the
floating/absorbed case from where the loop stops (see ``classify_case``), and
assembles a full geometric certificate (projections, sector angles,
equilibrium residual) afterwards.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateProjection,
    NonConvergence,
    PreconditionViolated,
    SolutionInsideDisk,
)
from .geometry import (
    COINCIDENT_EPS,
    Configuration,
    DistanceMode,
    Point2,
    azimuths_at,
    cosine_residuals,
    sectors_of,
)

DEFAULT_MAX_ITERS = 10000
_EPS = float(np.finfo(float).eps)
# below this many centers the solver loop runs on Python floats: per call,
# numpy costs more than the arithmetic on a few floats (crossover n = 30-32)
_SMALL_N = 32


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

    ``projection_xy`` holds the projection of the point onto each circle as
    an ``(x, y)`` pair of floats, in input order; ``projections`` builds
    the same points as ``Point2`` objects on each access. ``ray_azimuths``
    are the polar angles of the rays from the point to the projection
    points, in input order; every angle of the certificate is derived from
    them. ``sector_angles`` are the consecutive counterclockwise angles
    between those rays, aligned with ``sector_order`` (input indices sorted
    by azimuth). All three are empty for an absorbed solution, which
    carries no angle certificate. ``equilibrium_residual`` is the gradient
    norm where the loop stopped for a floating solution, and 0 by definition
    for an absorbed one: a center absorbs only when its pull is at most its
    weight.
    """

    point: Point2
    projection_xy: tuple[tuple[float, float], ...]
    distances: tuple[float, ...]
    sector_angles: tuple[float, ...]
    sector_order: tuple[int, ...]
    objective: float
    case: CaseTag
    equilibrium_residual: float
    iterations: int = 0
    ray_azimuths: tuple[float, ...] = ()

    @property
    def projections(self) -> tuple[Point2, ...]:
        return tuple(Point2(x, y) for x, y in self.projection_xy)


def classify_case(
    config: Configuration, point: Point2 | None = None, nearest: int | None = None
) -> CaseTag:
    """Floating, or absorbed at the center where the minimizer lies.

    ``point`` is the minimizer of the center problem as ``solve``'s loop
    returns it, and ``nearest`` the index of the center nearest to it when
    the caller knows it. A center ``A_m`` is the minimizer exactly when its
    pull satisfies ``||sum_{j!=m} w_j u(A_m, A_j)|| <= w_m`` (ties absorb).
    The loop stops on a center only after that center passed this test, so
    a point on a center is absorbed there. Otherwise the nearest center gets
    the test, which catches a loop that converged next to an absorbing
    center without landing on it. Unless the centers are collinear the
    minimizer is unique, so at most one center can pass. With collinear
    centers the minimizers can fill a segment between two centers; both
    ends then pass with equality, and the case names the end nearest to
    ``point`` (the first on a tie). The work is O(n), and O(1) for a point
    on its given nearest center.

    Without ``point`` this is ``solve(config).case``.
    """
    if point is None:
        return solve(config).case
    arith = _arithmetic(config)
    x, y = point.x, point.y
    m = arith.at(x, y)[1] if nearest is None else nearest
    if arith.distance(m, x, y) < COINCIDENT_EPS:
        return CaseTag.absorbed(m)
    if arith.pull(m)[1] <= arith.weights[m]:
        return CaseTag.absorbed(m)
    return CaseTag.floating()


def _minimize(
    arith: _Floats | _Arrays,
    tol: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    initial: Sequence[float] | None = None,
) -> tuple[tuple[float, float], int, float, int, tuple[Sequence[float], float] | None]:
    """Minimize ``sum w_i |P - A_i|`` from the weighted centroid or ``initial``.

    The centers and weights are those of the arithmetic back end ``arith``
    (see ``_arithmetic``). Returns (point, steps taken, residual, nearest
    center, pull), the point as a pair of floats and the pull as ``arith``
    returns it. Each step
    is the damped Newton step, or the Weiszfeld map when backtracking
    accepts no Newton point. An iterate on a center gets the single-point
    optimality test: an optimal center is returned at once, with residual 0
    and its pull and pull norm; otherwise the Vardi-Zhang step moves it off
    along the pull of the other centers. Elsewhere the iteration stops when
    both the last step and the equilibrium residual are small, and ``pull``
    is None. Both stop tests run on the start point and after each of at
    most ``max_iters`` steps.

    The Weiszfeld map approaches an absorbing center only linearly, and it
    is every step when the centers are collinear (the Hessian is singular).
    So before a Weiszfeld step the nearest center gets the optimality test
    too, once per center since its pull does not depend on the iterate; a
    center that passes is returned as the result of that step.

    The next point depends only on the current one, so an iterate equal to
    any earlier one repeats the cycle between them forever: that raises
    NonConvergence at once instead of spending the rest of the budget. The
    test runs after the stop tests, so a converging run is unaffected.

    The iterate is a pair of floats; the sums over the centers come from
    ``arith``, on Python floats below ``_SMALL_N`` centers and on arrays
    from there up. Both give the same steps and tests; their sums round in
    a different order, so their points agree to about 1e-14 times the size
    of the scene rather than bit for bit.
    """
    at, gradient, weights = arith.at, arith.gradient, arith.weights
    if initial is None:
        px, py = arith.centroid()
    else:
        px, py = map(float, initial)
    evaluated = at(px, py)
    step = residual = math.inf
    visited = set()
    not_optimal = set()
    for it in range(max_iters + 1):
        f, hit, d_hit, here = evaluated
        on_center = d_hit < COINCIDENT_EPS
        if on_center:
            pull, pull_norm = at_center = arith.pull(hit)
            if pull_norm <= weights[hit]:
                # the center itself is the minimizer: absorbed there
                return arith.center(hit), it, 0.0, hit, at_center
        else:
            gx, gy, h_xx, h_yy, h_xy = gradient(here)
            residual = math.hypot(gx, gy)
            if step < tol and residual < 10.0 * tol:
                return (px, py), it, residual, hit, None
        xy = (px, py)
        if xy in visited:
            raise NonConvergence(
                f"iteration revisits a point after {it} steps without reaching "
                f"tolerance {tol} (step {step:.3e}, residual {residual:.3e})"
            )
        visited.add(xy)
        if it == max_iters:
            break
        if on_center:
            accepted = None
            nx, ny = arith.vardi_zhang(here, hit, pull, pull_norm)
        else:
            accepted = _newton_step(
                arith, px, py, f, gx, gy, h_xx, h_yy, h_xy, residual, hit, d_hit
            )
            if accepted is None:
                if hit not in not_optimal:
                    at_center = arith.pull(hit)
                    if at_center[1] <= weights[hit]:
                        return arith.center(hit), it + 1, 0.0, hit, at_center
                    not_optimal.add(hit)
                nx, ny = arith.weiszfeld(here)
            else:
                nx, ny, evaluated = accepted
        step = math.hypot(nx - px, ny - py)
        px, py = nx, ny
        if accepted is None:
            evaluated = at(px, py)
    raise NonConvergence(
        f"iteration did not reach tolerance {tol} in {max_iters} steps "
        f"(residual {residual:.3e})"
    )


def _newton_step(arith, px, py, f, gx, gy, h_xx, h_yy, h_xy, residual, hit, d_hit):
    """Damped Newton point from ``(px, py)`` on the closed-form 2x2 Hessian, or None.

    ``f``, the gradient and the Hessian entries are those at ``(px, py)``,
    and ``d_hit`` its distance to the nearest center ``hit``. A candidate
    is accepted when it does not raise the objective, or when it lowers
    the gradient norm and raises the objective by no more than the rounding
    error of its sum. When the full step reaches the nearest center, where
    the objective has a kink the Newton model cannot see, the center itself
    is tried first. Returns the accepted ``(x, y, arith.at(x, y))``, whose
    evaluation the next step reuses, or None when backtracking accepted
    nothing.
    """
    det = h_xx * h_yy - h_xy * h_xy
    if det <= 0.0:
        return None
    delta_x = (-gx * h_yy + gy * h_xy) / det
    delta_y = (-gy * h_xx + gx * h_xy) / det
    if math.hypot(delta_x, delta_y) >= d_hit:
        cx, cy = arith.center(hit)
        evaluated = arith.at(cx, cy)
        if evaluated[0] <= f:
            return cx, cy, evaluated
    slack = len(arith.weights) * _EPS * f
    t = 1.0
    for _ in range(40):
        cx, cy = px + t * delta_x, py + t * delta_y
        evaluated = arith.at(cx, cy)
        f_cand, _, d_near, there = evaluated
        if f_cand <= f:
            return cx, cy, evaluated
        if f_cand - f <= slack and d_near >= COINCIDENT_EPS:
            g_x, g_y = arith.gradient(there)[:2]
            if math.hypot(g_x, g_y) < residual:
                return cx, cy, evaluated
        t *= 0.5
    return None


def _arithmetic(config: Configuration) -> _Floats | _Arrays:
    """The sums of the solver loop on the configuration's centers: on its
    float columns below ``_SMALL_N`` centers, where each numpy call costs
    more than its arithmetic, and on its arrays from there up."""
    return (_Floats if config.n < _SMALL_N else _Arrays)(config)


class _Arrays:
    """The sums over the centers that ``_minimize`` needs, on numpy arrays.

    ``at`` returns the objective at a point, the nearest center and its
    distance, and the evaluation ``here`` that the other methods take:
    ``centers - point`` and its row lengths. Points and centers come back
    as pairs of floats, a pull as an array.
    """

    __slots__ = ("centers", "weights")

    def __init__(self, config: Configuration):
        self.centers = config.centers_array()
        self.weights = config.weights_array()

    def center(self, m):
        return tuple(self.centers[m].tolist())

    def distance(self, m, x, y):
        """Distance from center m to the point ``(x, y)``."""
        return float(np.hypot(*(self.centers[m] - (x, y))))

    def centroid(self):
        w = self.weights
        return ((w[:, None] * self.centers).sum(axis=0) / w.sum()).tolist()

    def at(self, x, y):
        diff = self.centers - (x, y)
        d = np.hypot(diff[:, 0], diff[:, 1])
        hit = int(d.argmin())
        return float(self.weights @ d), hit, d[hit], (diff, d)

    def gradient(self, here):
        """The gradient and the Hessian's entries ``h_xx, h_yy, h_xy``."""
        diff, d = here
        e = diff / d[:, None]
        gx, gy = (-(self.weights @ e)).tolist()
        k = self.weights / d
        ex, ey = e.T
        h_xx = float(k @ (1.0 - ex ** 2))
        h_yy = float(k @ (1.0 - ey ** 2))
        return gx, gy, h_xx, h_yy, -float(k @ (ex * ey))

    def weiszfeld(self, here):
        inv = self.weights / here[1]
        return ((inv @ self.centers) / inv.sum()).tolist()

    def vardi_zhang(self, here, hit, pull, pull_norm):
        """Step off center ``hit`` along its pull (Vardi & Zhang, 2001)."""
        d = here[1]
        rest = np.delete(np.arange(len(d)), hit)
        inv = self.weights[rest] / d[rest]
        scale = 1.0 - self.weights[hit] / pull_norm
        return (self.centers[hit] + scale * pull / inv.sum()).tolist()

    def pull(self, m):
        """Pull ``sum_{j!=m} w_j u(A_m, A_j)`` of the other centers at center m, and its norm."""
        diff = self.centers - self.centers[m]
        with np.errstate(over="ignore"):  # the squares overflow to inf on a huge scene
            sq = diff * diff
            s = sq[:, 0] + sq[:, 1]
        d = np.sqrt(s)  # np.linalg.norm's rounding, without its overhead
        odd = ~((0.0 < s) & (s < np.inf))
        odd[m] = False
        if odd.any():  # the squares underflow to 0 on a tiny scene, or overflow on a huge one
            d[odd] = np.hypot(diff[odd, 0], diff[odd, 1])
        d[m] = np.inf  # center m's own term becomes 0
        pull = (self.weights[:, None] * diff / d[:, None]).sum(axis=0)
        return pull, float(np.linalg.norm(pull))


class _Floats:
    """``_Arrays`` on Python floats, for n < ``_SMALL_N``.

    It reads the configuration's float columns, which hold the values of
    its arrays, as ``rows`` of weight and center. ``at`` walks them once:
    per center it takes ``center - point`` and its ``math.hypot`` length,
    adds to the objective, keeps the first nearest center (as
    ``d.index(min(d))``) and adds the gradient and Hessian terms; ``here``
    is that gradient with the point, and the Weiszfeld and Vardi-Zhang
    steps take their distances again from the point. A center at distance
    0 adds no gradient term: the loop reads no gradient on a center. Each
    sum adds its terms in index order with ``+=`` (``sum`` on floats
    rounds differently from Python 3.12 on). The pull is summed in the
    same order and to the same bits as on arrays; its norm is
    ``math.hypot``'s, which can differ from ``np.linalg.norm``'s in the
    last bit.
    """

    __slots__ = ("xs", "ys", "weights", "rows")

    def __init__(self, config: Configuration):
        self.xs, self.ys, self.weights = config.xs, config.ys, config.weights
        self.rows = tuple(zip(self.weights, self.xs, self.ys))

    def center(self, m):
        return self.xs[m], self.ys[m]

    def distance(self, m, x, y):
        return math.hypot(self.xs[m] - x, self.ys[m] - y)

    def centroid(self):
        wsum = px = py = 0.0
        for w, x, y in self.rows:
            wsum += w
            px += w * x
            py += w * y
        return px / wsum, py / wsum

    def at(self, x, y):
        hypot = math.hypot
        f = gx = gy = h_xx = h_yy = h_xy = 0.0
        hit, d_hit = 0, math.inf
        for i, (w, a, b) in enumerate(self.rows):
            a -= x
            b -= y
            di = hypot(a, b)
            f += w * di
            if di < d_hit:
                hit, d_hit = i, di
            if di:
                ex, ey, k = a / di, b / di, w / di
                gx += w * ex
                gy += w * ey
                h_xx += k * (1.0 - ex * ex)
                h_yy += k * (1.0 - ey * ey)
                h_xy += k * (ex * ey)
        return f, hit, d_hit, ((-gx, -gy, h_xx, h_yy, -h_xy), x, y)

    def gradient(self, here):
        """The gradient and the Hessian's entries ``h_xx, h_yy, h_xy``."""
        return here[0]

    def weiszfeld(self, here):
        _, px, py = here
        inv = nx = ny = 0.0
        for w, x, y in self.rows:
            k = w / math.hypot(x - px, y - py)
            inv += k
            nx += k * x
            ny += k * y
        return nx / inv, ny / inv

    def vardi_zhang(self, here, hit, pull, pull_norm):
        _, px, py = here
        inv = 0.0
        for j, (w, x, y) in enumerate(self.rows):
            if j != hit:
                inv += w / math.hypot(x - px, y - py)
        scale = 1.0 - self.weights[hit] / pull_norm
        ux, uy = pull
        return self.xs[hit] + scale * ux / inv, self.ys[hit] + scale * uy / inv

    def pull(self, m):
        ax, ay = self.xs[m], self.ys[m]
        px = py = 0.0
        for j, (w, x, y) in enumerate(self.rows):
            if j != m:
                dx, dy = x - ax, y - ay
                # hypot where the squares underflow to 0 on a tiny scene, or overflow on a huge one
                s = dx * dx + dy * dy
                dj = math.sqrt(s) if 0.0 < s < math.inf else math.hypot(dx, dy)
                px += w * dx / dj
                py += w * dy / dj
        return (px, py), math.hypot(px, py)


def solve(config: Configuration) -> SolveResult:
    """Solve the weighted minimum-distance-sum problem for the configuration.

    The solver loop runs on the centers from their weighted centroid, and
    the case comes from the point where it stops (``classify_case``).
    Raises NonConvergence when the loop revisits a point, or when
    ``DEFAULT_MAX_ITERS`` steps neither meet the convergence test nor reach
    an absorbing center; absorbed scenes included.

    Floating case: projections, consecutive sector angles, objective with
    radii subtracted, and the equilibrium residual. ``iterations`` counts
    the steps of the loop. Raises SolutionInsideDisk if the center-problem
    minimizer falls strictly inside some disk, where the curve-distance
    theory does not apply.

    Absorbed case: the point is the absorbing center; distances and
    projections are computed from it, ``iterations`` and
    ``equilibrium_residual`` are 0 and no angle certificate is produced.

    Each configuration is solved once: the first call stores its result on
    the (immutable) configuration, and later calls return that same object.
    Errors are never stored, so a failing call raises again. Pickled and
    deep-copied configurations start without a stored result.
    """
    if config._solved is None:
        object.__setattr__(config, "_solved", _solve(config))
    return config._solved


def _solve(config: Configuration) -> SolveResult:
    arith = _arithmetic(config)
    (x, y), iters, residual, m, at_center = _minimize(arith, config.tolerance)
    point = Point2(x, y)
    case = classify_case(config, point, m)
    floating = case.is_floating
    if not floating:
        point = config.circles[m].center
        (ux, uy), pull_norm = at_center or arith.pull(m)
        # float(): the array back end's pull is an array
        ux, uy = (float(ux) / pull_norm, float(uy) / pull_norm) if pull_norm > 0 else (1.0, 0.0)
        residual = 0.0
        iters = 0
    # one pass over the circles: the distance from the point to each center
    # with math.hypot, as Point2.distance_to (numpy's hypot can differ in the
    # last bit), and the projection onto each circle, as project_onto_circle
    px, py = point.x, point.y
    d, projection_xy = [], []
    for i, (cx, cy, r) in enumerate(zip(config.xs, config.ys, config.radii)):
        ox, oy = px - cx, py - cy
        di = math.hypot(ox, oy)
        if di < r:
            if floating:
                raise SolutionInsideDisk(i)
            if i == m:
                # projection of the center onto its own circle is not unique;
                # report the circle point in the pull direction, a unit
                # offset along it
                ox, oy, di = ux, uy, 1.0
        d.append(di)
        k = r / di
        projection_xy.append((cx + k * ox, cy + k * oy))
    if min(d) < COINCIDENT_EPS:
        raise DegenerateProjection("projection of the center onto its circle is not unique")
    if not floating:
        d[m] = 0.0  # the absorbed point is center m
    gaps = map(operator.sub, d, config.radii)
    curve = config.distance_mode is DistanceMode.TO_CURVE
    distances = list(map(abs, gaps)) if curve else [max(g, 0.0) for g in gaps]
    azimuths = azimuths_at(point, projection_xy) if floating else []
    order, sectors = sectors_of(azimuths) if floating else ((), ())
    return SolveResult(
        point=point,
        projection_xy=tuple(projection_xy),
        distances=tuple(distances),
        sector_angles=sectors,
        sector_order=order,
        # numpy's dot: its rounding is part of the pinned results
        objective=float(np.dot(config.weights, distances)),
        case=case,
        equilibrium_residual=residual,
        iterations=iters,
        ray_azimuths=tuple(azimuths),
    )


def certificate_residuals(result: SolveResult, config: Configuration) -> list[float]:
    """Cosine equilibrium residuals ``w_i + sum_{j!=i} w_j cos(angle_ij)``.

    Each is the projection of the weighted resultant of the result's unit
    rays onto ray i (see ``cosine_residuals``), an O(n) computation.
    All residuals vanish at the true floating minimizer. Raises
    PreconditionViolated for absorbed results, which have no angle certificate.
    """
    if not result.case.is_floating:
        raise PreconditionViolated("cosine residuals require a floating solution")
    return cosine_residuals(result.ray_azimuths, config.weights).tolist()
