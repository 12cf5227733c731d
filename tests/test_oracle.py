"""Oracle tests: brute-force minimizer, finite differences, generators."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
    InvalidConfiguration,
    Point2,
    classify_case,
    objective,
    oracle_minimize,
    random_dominated_config,
    random_floating_config,
    regular_polygon_config,
    solve,
)

from conftest import directional_derivative_to_circle, finite_difference_gradient

PINNED = Path(__file__).with_name("oracle_points.json")


class TestOracleMinimize:
    def test_equilateral_centroid(self, equilateral_config):
        p = oracle_minimize(equilateral_config)
        assert p.distance_to(Point2(0.0, 0.0)) < 1e-4

    def test_matches_solver_on_random(self):
        for n, seed in ((3, 0), (4, 1), (5, 2), (6, 3)):
            config = random_floating_config(n, seed=seed)
            solved = solve(config).point
            brute = oracle_minimize(config)
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
            for name in ("solve", "classify_case", "_minimize"):
                if hasattr(target, name):
                    monkeypatch.setattr(target, name, forbidden)
        for key, config in configs.items():
            assert oracle_minimize(config).distance_to(Point2(*expected[key])) < 1e-4, key

    @pytest.mark.parametrize("mode", list(DistanceMode))
    @pytest.mark.parametrize("s", [1e-320, 1e-310, 1e-300, 1e-160, 1e-6, 1e6])
    def test_scaled_scene_gives_the_scaled_point(self, s, mode):
        # the box pad is relative to the scene, so the grid scales with it;
        # below a box of 2**-1023 the power-of-two scale of the grid values
        # stops at 2**1023
        config = replace(random_floating_config(4, 11), distance_mode=mode)
        centers = config.centers_array()
        size = float((centers.max(axis=0) - centers.min(axis=0)).max())
        p = oracle_minimize(config)
        q = oracle_minimize(_scaled(config, s))
        assert math.hypot(q.x - s * p.x, q.y - s * p.y) <= 1e-6 * s * size

    def test_import_does_not_load_scipy(self):
        src = str(Path(ftcircles.__file__).resolve().parents[1])
        code = "import sys, ftcircles; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("s, grids", [(1e-300, 16), (1.0, 16), (1e300, 16), (1e-320, 41)])
    def test_zoom_schedule(self, s, grids, monkeypatch):
        # the coarse grid and 15 zoom rounds, until the window is below
        # 1e-10 of the box; at 1e-320 that bound underflows to 0, and the
        # cap of 40 rounds ends the zoom
        calls = []
        best_on_grid = ftcircles.oracle._best_on_grid

        def counted(*args):
            calls.append(None)
            assert len(calls) <= 100, "the zoom does not stop"
            return best_on_grid(*args)

        monkeypatch.setattr(ftcircles.oracle, "_best_on_grid", counted)
        oracle_minimize(_scaled(random_floating_config(4, 11), s))
        assert len(calls) == grids

    def test_absorbed_instance(self):
        config = random_dominated_config(3, seed=4)
        tag = classify_case(config)
        assert tag.index == 0
        brute = oracle_minimize(config)
        assert brute.distance_to(config.circles[0].center) < 1e-3


def pinned_scenes():
    """Name -> configuration of every point in oracle_points.json."""
    scenes = {}
    for mode in DistanceMode:
        for n in range(3, 8):
            for seed in range(16):
                scenes[f"floating {mode.value} n={n} seed={seed}"] = replace(
                    random_floating_config(n, seed), distance_mode=mode
                )
        for n in range(3, 7):
            for seed in range(6):
                scenes[f"dominated {mode.value} n={n} seed={seed}"] = replace(
                    random_dominated_config(n, seed, dominant=seed % n), distance_mode=mode
                )
        for n in range(3, 9):
            scenes[f"polygon {mode.value} n={n}"] = replace(
                regular_polygon_config(n), distance_mode=mode
            )
        # unscaled, squares of grid offsets would overflow from 1e155 up, and
        # underflow from 1e-160 down
        for scale in ("1e155", "1e200", "1e300", "1e-160", "1e-300"):
            scenes[f"scaled {scale} {mode.value} n=4"] = _scaled(
                replace(random_floating_config(4, 11), distance_mode=mode), float(scale)
            )
        scenes[f"on-circle {mode.value}"] = _on_circle(mode)
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
    pad = 0.6 + 1e-6 * 5.5  # the centers' box is 5.5 x 3
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


_BASES = {
    "floating": lambda n, seed, mode: replace(random_floating_config(n, seed), distance_mode=mode),
    "dominated": lambda n, seed, mode: replace(
        random_dominated_config(n, seed, dominant=seed % n), distance_mode=mode
    ),
    "polygon": lambda n, seed, mode: replace(regular_polygon_config(n), distance_mode=mode),
    "cross": lambda n, seed, mode: _cross(mode),
    "on-circle": lambda n, seed, mode: _on_circle(mode),
    "just-inside": lambda n, seed, mode: _on_circle(mode, ulps=1 + seed % 4),
}


class TestGrid:
    """The grid search on power-of-two scaled square roots."""

    @given(
        kind=st.sampled_from(sorted(_BASES)),
        n=st.integers(3, 6),
        seed=st.integers(0, 20),
        mode=st.sampled_from(list(DistanceMode)),
        cells=st.integers(1, 80),
        scale=st.integers(-300, 300).map(lambda e: 10.0**e),
        k=st.integers(-980, 1000),
        j=st.integers(-200, 200),
    )
    @example(kind="floating", n=4, seed=3, mode=DistanceMode.TO_CURVE, cells=80, scale=1e300, k=1000, j=200)
    @example(kind="floating", n=5, seed=1, mode=DistanceMode.TO_SET, cells=64, scale=1e155, k=-980, j=-200)
    @example(kind="cross", n=4, seed=0, mode=DistanceMode.TO_CURVE, cells=65, scale=1e-160, k=-980, j=0)
    @example(kind="cross", n=4, seed=0, mode=DistanceMode.TO_SET, cells=65, scale=1e-300, k=1000, j=1)
    @example(kind="on-circle", n=4, seed=0, mode=DistanceMode.TO_CURVE, cells=64, scale=1.0, k=-1, j=-1)
    @example(kind="on-circle", n=4, seed=0, mode=DistanceMode.TO_SET, cells=64, scale=1.0, k=3, j=5)
    @example(kind="just-inside", n=4, seed=0, mode=DistanceMode.TO_CURVE, cells=64, scale=1.0, k=-7, j=9)
    @example(kind="dominated", n=3, seed=2, mode=DistanceMode.TO_CURVE, cells=1, scale=1.0, k=600, j=-30)
    @settings(max_examples=150, deadline=None)
    def test_scale_free_and_close_to_objective(self, kind, n, seed, mode, cells, scale, k, j):
        base = _BASES[kind](n, seed, mode)
        # (a) scaling the scene by 2**k scales the point by 2**k, bit for bit
        p = oracle_minimize(base)
        q = oracle_minimize(_scaled(base, 2.0**k))
        assert _xy(q) == [p.x * 2.0**k, p.y * 2.0**k]
        # (b) scaling every weight by 2**j keeps the point
        config = _scaled(base, scale)
        heavier = replace(config, weights=tuple(w * 2.0**j for w in config.weights))
        assert _xy(oracle_minimize(heavier)) == _xy(oracle_minimize(config))
        # (c) the value of a grid of any size, scaled back, is objective up
        # to rounding
        x, y, val, e = _coarse(config, cells)
        centers = config.centers_array()
        d = np.hypot(x - centers[:, 0], y - centers[:, 1])
        bound = 8.0 * np.finfo(float).eps * float(config.weights_array() @ (d + config.radii_array()))
        assert abs(math.ldexp(val, e) - objective(config, [x, y])) <= bound


def _coarse(config, cells):
    """(x, y, value, e) of the best point of a ``cells``-point grid on oracle_minimize's box.

    The value is the grid's, scaled by ``2**-e``.
    """
    centers, radii = config.centers_array(), config.radii_array()
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    pad = float(radii.max()) + 1e-6 * float((hi - lo).max())
    lo, hi = lo - pad, hi + pad
    e = max(math.frexp(float(max(hi - lo)))[1], -1023)
    scale = math.ldexp(1.0, -e)
    curve = config.distance_mode is DistanceMode.TO_CURVE
    disks = (centers[:, 0], centers[:, 1], radii * scale, config.weights_array(), curve, scale)
    xs, ys = np.linspace(lo[0], hi[0], cells), np.linspace(lo[1], hi[1], cells)
    return (*ftcircles.oracle._best_on_grid(xs, ys, disks), e)


class TestPinnedPoints:
    """Oracle points equal, with ==, those pinned in oracle_points.json."""

    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_on_circle_scene_puts_the_coarse_argmin_on_the_circle(self, mode):
        config = _on_circle(mode)
        x, y, _, _ = _coarse(config, 64)
        c = config.circles[0]
        assert np.hypot(x - c.center.x, y - c.center.y) - c.radius == 0.0

    def test_points_match_pinned(self):
        pinned = json.loads(PINNED.read_text())
        assert sorted(pinned) == sorted(pinned_scenes())
        wrong = [
            name
            for name, config in pinned_scenes().items()
            if _xy(oracle_minimize(config)) != pinned[name]
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


class TestGenerators:
    def test_floating_configs_are_floating(self):
        for n in (3, 4, 5, 6):
            config = random_floating_config(n, seed=100 + n)
            assert classify_case(config).is_floating
            result = solve(config)
            for c in config.circles:
                assert result.point.distance_to(c.center) > c.radius

    @pytest.mark.parametrize("mode", list(DistanceMode))
    def test_floating_configs_reach_n_16(self, mode):
        # above n = 7 the sampling box grows with n
        for n in range(8, 17):
            for seed in range(20):
                config = replace(random_floating_config(n, seed), distance_mode=mode)
                assert config.n == n and classify_case(config).is_floating

    def test_deterministic(self):
        a = random_floating_config(4, seed=42)
        b = random_floating_config(4, seed=42)
        assert a == b

    def test_dominated_configs_absorb(self):
        for seed in range(5):
            config = random_dominated_config(4, seed=seed, dominant=1)
            assert classify_case(config).index == 1

    @pytest.mark.parametrize("n", [2, 0, -1])
    @pytest.mark.parametrize("generator", [random_floating_config, random_dominated_config])
    def test_too_few_circles_are_rejected(self, generator, n):
        with pytest.raises(InvalidConfiguration, match=f"need at least 3 circles, got {n}$"):
            generator(n, 0)

    def test_polygon_defaults_fit_31_circles_only(self):
        # neighbours are 4 sin(pi/n) apart, below twice the radius 0.2 from n = 32
        assert regular_polygon_config(31).n == 31
        with pytest.raises(InvalidConfiguration, match="^circles 0 and 1 overlap or touch$"):
            regular_polygon_config(32)

    @pytest.mark.parametrize("dominant", [4, 7, -1])
    def test_dominant_outside_the_circles_is_rejected(self, dominant):
        with pytest.raises(InvalidConfiguration, match=rf"0\.\.3, got {dominant}$"):
            random_dominated_config(4, 0, dominant=dominant)

    @pytest.mark.parametrize(
        "generate",
        [
            lambda: random_floating_config(5, 3),
            lambda: random_dominated_config(5, 3, dominant=2),
            lambda: regular_polygon_config(5),
        ],
        ids=["floating", "dominated", "polygon"],
    )
    def test_set_mode_scene_is_a_replace(self, generate):
        # the generators make TO_CURVE scenes; replace gives the TO_SET scene
        # with the same circles, weights, tolerance and float columns
        curve = generate()
        as_set = replace(curve, distance_mode=DistanceMode.TO_SET)
        assert curve.distance_mode is DistanceMode.TO_CURVE
        assert (as_set.circles, as_set.weights, as_set.tolerance) == (
            curve.circles,
            curve.weights,
            curve.tolerance,
        )
        assert (as_set.xs, as_set.ys, as_set.radii) == (curve.xs, curve.ys, curve.radii)
        # at a center the modes differ by that circle's weighted radius only
        center = [curve.xs[0], curve.ys[0]]
        gap = objective(curve, center) - objective(as_set, center)
        assert gap == pytest.approx(curve.weights[0] * curve.radii[0], rel=1e-12)


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
        name: _xy(oracle_minimize(config))
        for name, config in sorted(pinned_scenes().items())
    }
    lines = [f"{json.dumps(name)}: {json.dumps(p)}" for name, p in points.items()]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
