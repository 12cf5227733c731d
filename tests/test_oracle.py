"""Oracle tests: brute-force minimizer, finite differences, generators."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ftcircles
import ftcircles.oracle
import ftcircles.solver
from ftcircles import (
    Circle,
    Configuration,
    DistanceMode,
    Point2,
    PreconditionViolated,
    classify_case,
    directional_derivative_to_circle,
    finite_difference_gradient,
    objective,
    oracle_minimize,
    random_dominated_config,
    random_floating_config,
    regular_polygon_config,
    solve,
)

PINNED = Path(__file__).with_name("oracle_points.json")


class TestOracleMinimize:
    def test_equilateral_centroid(self, equilateral_config):
        p = oracle_minimize(equilateral_config, grid_cells=200, refine_iters=200)
        assert p.distance_to(Point2(0.0, 0.0)) < 1e-4

    def test_matches_solver_on_random(self):
        for n, seed in ((3, 0), (4, 1), (5, 2), (6, 3)):
            config = random_floating_config(n, seed=seed)
            solved = solve(config).point
            brute = oracle_minimize(config, grid_cells=250, refine_iters=200)
            assert solved.distance_to(brute) < 1e-4, f"n={n} seed={seed}"

    def test_uses_no_solver_code(self, monkeypatch):
        # the oracle is an independent check only if it never reaches the
        # solver or a gradient; the points were computed by solve()
        expected = {
            (3, 0): (1.3092993970395115, 3.0560070211300507),
            (4, 1): (1.788043185014246, 2.3742067867973344),
            (5, 2): (1.5251103091174891, 2.275828738441087),
            (6, 3): (2.609781986962419, 2.594727413828422),
        }
        configs = {key: random_floating_config(*key) for key in expected}

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called solver or gradient code")

        for target in (ftcircles.solver, ftcircles.oracle):
            for name in ("solve", "classify_case", "_minimize", "finite_difference_gradient"):
                if hasattr(target, name):
                    monkeypatch.setattr(target, name, forbidden)
        for key, config in configs.items():
            assert oracle_minimize(config).distance_to(Point2(*expected[key])) < 1e-4, key

    def test_import_does_not_load_scipy(self):
        src = str(Path(ftcircles.__file__).resolve().parents[1])
        code = "import sys, ftcircles; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("cells, iters", [(0, 40), (-3, 40), (64, -1)])
    def test_rejects_empty_grid_and_negative_rounds(self, cells, iters):
        config = random_floating_config(3, seed=0)
        with pytest.raises(PreconditionViolated, match="grid_cells >= 1 and refine_iters >= 0"):
            oracle_minimize(config, grid_cells=cells, refine_iters=iters)

    def test_absorbed_instance(self):
        config = random_dominated_config(3, seed=4)
        tag = classify_case(config)
        assert tag.index == 0
        brute = oracle_minimize(config, grid_cells=300, refine_iters=300)
        assert brute.distance_to(config.circles[0].center) < 1e-3


def pinned_scenes():
    """Name -> (configuration, grid_cells, refine_iters) of every point in oracle_points.json."""
    scenes = {}
    for mode in DistanceMode:
        for n in range(3, 8):
            for seed in range(16):
                scenes[f"floating {mode.value} n={n} seed={seed}"] = (
                    random_floating_config(n, seed, distance_mode=mode), 64, 40
                )
        for n in range(3, 7):
            for seed in range(6):
                scenes[f"dominated {mode.value} n={n} seed={seed}"] = (
                    random_dominated_config(n, seed, dominant=seed % n, distance_mode=mode), 64, 40
                )
        for n in range(3, 9):
            scenes[f"polygon {mode.value} n={n}"] = (
                regular_polygon_config(n, distance_mode=mode), 64, 40
            )
        for cells, iters in ((1, 40), (2, 0), (7, 3), (200, 40)):
            for n in (3, 5):
                scenes[f"grid {cells}x{iters} {mode.value} n={n}"] = (
                    random_floating_config(n, 100 + cells, distance_mode=mode), cells, iters
                )
        # squares of grid offsets overflow from 1e155 up; below 1e-6 the
        # box is set by the 1e-6 pad, so the grid is far from the centers
        for scale in ("1e155", "1e200", "1e300", "1e-160", "1e-300"):
            scenes[f"scaled {scale} {mode.value} n=4"] = (
                _scaled(random_floating_config(4, 11, distance_mode=mode), float(scale)), 64, 40
            )
        # the middle point of an odd grid is the origin, 1e-160 or 1e-300
        # from every center, so the squares of its offsets underflow
        for scale in ("1e-160", "1e-300"):
            scenes[f"cross {scale} {mode.value}"] = (_scaled(_cross(mode), float(scale)), 65, 40)
        scenes[f"on-circle {mode.value}"] = (_on_circle(mode), 64, 40)
    return scenes


def _scaled(config, s):
    circles = tuple(
        Circle(Point2(c.center.x * s, c.center.y * s), c.radius * s) for c in config.circles
    )
    return Configuration(circles, config.weights, config.tolerance, config.distance_mode)


def _cross(mode):
    """Four circles at (+-1, 0) and (0, +-1); the origin is the minimizer."""
    centers = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    circles = tuple(Circle(Point2(*c), 0.3) for c in centers)
    return Configuration(circles, (1.0,) * 4, 1e-10, mode)


def _on_circle(mode, ulps=0):
    """A scene whose coarse 64 x 64 argmin lies exactly on circle 0.

    Circle 0 is dominant, so the best coarse point hugs it. Its radius is
    the distance from its center to grid point (29, 15), grown by ``ulps``
    ulps to put that point just inside; circle 1 keeps the largest radius,
    so the grid does not depend on circle 0.
    """
    pad = 0.6 + 1e-6
    x = np.linspace(-2.5 - pad, 3.0 + pad, 64)[29]
    y = np.linspace(0.0 - pad, 3.0 + pad, 64)[15]
    r = float(np.hypot(x, y))
    for _ in range(ulps):
        r = math.nextafter(r, math.inf)
    circles = (
        Circle(Point2(0.0, 0.0), r),
        Circle(Point2(3.0, 0.5), 0.6),
        Circle(Point2(0.5, 3.0), 0.3),
        Circle(Point2(-2.5, 1.0), 0.3),
    )
    return Configuration(circles, (10.0, 1.0, 1.0, 1.0), 1e-10, mode)


def _xy(p):
    return [p.x, p.y]


def _reference_best_on_grid(xs, ys, disks):
    """Full-grid evaluation: hypot on every point, as before the screen."""
    cx, cy, radii, weights, curve = disks
    gap = np.hypot((xs[:, None] - cx)[None], (ys[:, None] - cy)[:, None]).reshape(-1, len(cx))
    gap -= radii
    if not curve:
        vals = np.maximum(gap, 0.0) @ weights
    else:
        vals = gap @ weights
        if gap.min() < 0.0:
            for j in range(len(cx)):
                vals[gap[:, j] < 0.0] = np.inf
    k = int(vals.argmin())
    return xs[k % len(xs)], ys[k // len(xs)], float(vals[k])


_BASES = {
    "floating": lambda n, seed, mode: random_floating_config(n, seed, distance_mode=mode),
    "dominated": lambda n, seed, mode: random_dominated_config(
        n, seed, dominant=seed % n, distance_mode=mode
    ),
    "polygon": lambda n, seed, mode: regular_polygon_config(n, distance_mode=mode),
    "cross": lambda n, seed, mode: _cross(mode),
    "on-circle": lambda n, seed, mode: _on_circle(mode),
    "just-inside": lambda n, seed, mode: _on_circle(mode, ulps=1 + seed % 4),
}


class TestScreenedGrid:
    """The screened coarse grid returns what hypot on every point returns."""

    @given(
        kind=st.sampled_from(sorted(_BASES)),
        n=st.integers(3, 6),
        seed=st.integers(0, 20),
        mode=st.sampled_from(list(DistanceMode)),
        cells=st.integers(1, 80),
        iters=st.integers(0, 40),
        scale=st.integers(-300, 300).map(lambda e: 10.0**e),
    )
    @example(kind="floating", n=4, seed=3, mode=DistanceMode.TO_CURVE, cells=80, iters=40, scale=1e300)
    @example(kind="floating", n=5, seed=1, mode=DistanceMode.TO_SET, cells=64, iters=40, scale=1e155)
    @example(kind="cross", n=4, seed=0, mode=DistanceMode.TO_CURVE, cells=65, iters=40, scale=1e-160)
    @example(kind="cross", n=4, seed=0, mode=DistanceMode.TO_SET, cells=65, iters=0, scale=1e-300)
    @example(kind="on-circle", n=4, seed=0, mode=DistanceMode.TO_CURVE, cells=64, iters=0, scale=1.0)
    @example(kind="on-circle", n=4, seed=0, mode=DistanceMode.TO_SET, cells=64, iters=40, scale=1.0)
    @example(kind="just-inside", n=4, seed=0, mode=DistanceMode.TO_CURVE, cells=64, iters=0, scale=1.0)
    @example(kind="dominated", n=3, seed=2, mode=DistanceMode.TO_CURVE, cells=1, iters=40, scale=1.0)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_grid_search(self, kind, n, seed, mode, cells, iters, scale):
        config = _scaled(_BASES[kind](n, seed, mode), scale)
        # the coarse grid's value too, bit for bit, not only its point
        assert _coarse(config, cells, ftcircles.oracle._best_on_screened_grid) == _coarse(
            config, cells, _reference_best_on_grid
        )
        got = oracle_minimize(config, cells, iters)
        with mock.patch.object(ftcircles.oracle, "_best_on_screened_grid", _reference_best_on_grid):
            want = oracle_minimize(config, cells, iters)
        assert _xy(got) == _xy(want)


def _coarse(config, cells, best_on_grid):
    """(x, y, value) of the best coarse grid point, as oracle_minimize lays the grid out."""
    centers, radii = config.centers_array(), config.radii_array()
    curve = config.distance_mode is DistanceMode.TO_CURVE
    disks = (centers[:, 0], centers[:, 1], radii, config.weights_array(), curve)
    pad = float(radii.max()) + 1e-6
    lo, hi = centers.min(axis=0) - pad, centers.max(axis=0) + pad
    return best_on_grid(np.linspace(lo[0], hi[0], cells), np.linspace(lo[1], hi[1], cells), disks)


class TestPinnedPoints:
    """Oracle points equal, with ==, those of the point-list grid code."""

    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_on_circle_scene_puts_the_coarse_argmin_on_the_circle(self, mode):
        config = _on_circle(mode)
        p = oracle_minimize(config, 64, 0)
        c = config.circles[0]
        assert np.hypot(p.x - c.center.x, p.y - c.center.y) - c.radius == 0.0

    def test_points_match_pinned(self):
        pinned = json.loads(PINNED.read_text())
        assert sorted(pinned) == sorted(pinned_scenes())
        wrong = [
            name
            for name, (config, cells, iters) in pinned_scenes().items()
            if _xy(oracle_minimize(config, cells, iters)) != pinned[name]
        ]
        assert wrong == []


class TestFiniteDifferences:
    def test_gradient_norm_at_solution(self):
        config = random_floating_config(4, seed=6)
        result = solve(config)
        g = finite_difference_gradient(config, result.point)
        assert np.linalg.norm(g) < 1e-5

    def test_gradient_points_uphill_elsewhere(self):
        config = random_floating_config(3, seed=6)
        result = solve(config)
        off = Point2(result.point.x + 0.2, result.point.y - 0.1)
        g = finite_difference_gradient(config, off)
        f0 = objective(config, off.as_array())
        f1 = objective(config, off.as_array() - 1e-4 * g / np.linalg.norm(g))
        assert f1 < f0


class TestFirstVariation:
    def test_radial_direction(self):
        c = Circle(Point2(0.0, 0.0), 1.0)
        d = directional_derivative_to_circle(c, Point2(3.0, 0.0), [1.0, 0.0])
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_perpendicular_direction(self):
        c = Circle(Point2(0.0, 0.0), 1.0)
        d = directional_derivative_to_circle(c, Point2(3.0, 0.0), [0.0, 1.0])
        assert abs(d) < 1e-6

    def test_cosine_identity_random(self):
        # derivative of the segment length along v equals the cosine of the
        # angle between -v and the segment toward the projection
        from conftest import angle_at, project_onto_circle

        rng = np.random.default_rng(12)
        c = Circle(Point2(0.5, -0.25), 0.8)
        for _ in range(50):
            p = Point2(*rng.uniform(-4, 4, 2))
            if p.distance_to(c.center) < c.radius + 0.05:
                continue
            ang = rng.uniform(0, 2 * math.pi)
            v = np.array([math.cos(ang), math.sin(ang)])
            d = directional_derivative_to_circle(c, p, v)
            proj = project_onto_circle(p, c)
            back = Point2(p.x - v[0], p.y - v[1])
            expected = math.cos(angle_at(p, back, proj))
            assert d == pytest.approx(expected, abs=1e-5)


    @pytest.mark.parametrize(
        "direction",
        [[0.0, 0.0], [float("nan"), 1.0], [float("inf"), 0.0], [1.0, 0.0, 0.0], [1.0], 1.0],
    )
    def test_rejects_degenerate_direction(self, direction):
        c = Circle(Point2(0.0, 0.0), 1.0)
        with pytest.raises(PreconditionViolated, match="finite nonzero norm"):
            directional_derivative_to_circle(c, Point2(3.0, 0.0), direction)


class TestGenerators:
    def test_floating_configs_are_floating(self):
        for n in (3, 4, 5, 6):
            config = random_floating_config(n, seed=100 + n)
            assert classify_case(config).is_floating
            result = solve(config)
            for c in config.circles:
                assert result.point.distance_to(c.center) > c.radius

    def test_deterministic(self):
        a = random_floating_config(4, seed=42)
        b = random_floating_config(4, seed=42)
        assert a == b

    def test_dominated_configs_absorb(self):
        for seed in range(5):
            config = random_dominated_config(4, seed=seed, dominant=1)
            assert classify_case(config).index == 1


class TestConvexity:
    def test_midpoint_probe(self):
        rng = np.random.default_rng(7)
        config = random_floating_config(4, seed=3)
        centers = config.centers_array()
        radii = config.radii_array()
        lo, hi = centers.min(axis=0), centers.max(axis=0)
        checked = 0
        while checked < 50:
            p, q = rng.uniform(lo, hi, (2, 2))
            if not _segment_clear(p, q, centers, radii):
                continue
            mid = 0.5 * (p + q)
            assert objective(config, mid) <= 0.5 * (
                objective(config, p) + objective(config, q)
            ) + 1e-12
            checked += 1


def _segment_clear(p, q, centers, radii, margin=0.02):
    for t in np.linspace(0.0, 1.0, 25):
        x = p + t * (q - p)
        if np.any(np.hypot(*(centers - x).T) < radii + margin):
            return False
    return True


if __name__ == "__main__":
    # PYTHONPATH=src python3 tests/test_oracle.py rewrites the pinned points
    # from the current code
    points = {
        name: _xy(oracle_minimize(config, cells, iters))
        for name, (config, cells, iters) in sorted(pinned_scenes().items())
    }
    lines = [f"{json.dumps(name)}: {json.dumps(p)}" for name, p in points.items()]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
