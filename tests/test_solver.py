"""Solver tests: classification, the floating certificate, absorbed returns."""

import math

import numpy as np
import pytest

from ftcircles import (
    CalledOnAbsorbed,
    Circle,
    Configuration,
    DistanceMode,
    InvalidConfiguration,
    NonConvergence,
    Point2,
    SectorAngles,
    SolutionInsideDisk,
    certificate_residuals,
    classify_case,
    finite_difference_gradient,
    objective,
    random_floating_config,
    solve,
)

from conftest import EQUILATERAL_CIRCUMRADIUS, assert_close, triangle_config


class TestClassify:
    def test_equilateral_equal_weights_floats(self, equilateral_config):
        assert classify_case(equilateral_config).is_floating

    def test_dominant_weight_absorbs(self):
        config = triangle_config(weights=(10.0, 1.0, 1.0))
        tag = classify_case(config)
        assert not tag.is_floating
        assert tag.index == 0

    def test_right_triangle_floats(self):
        # centers (0,0), (1,0), (0,1): check the three pulls directly
        centers = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for i in range(3):
            pull = np.zeros(2)
            for j in range(3):
                if j != i:
                    v = centers[j] - centers[i]
                    pull += v / np.linalg.norm(v)
            assert np.linalg.norm(pull) > 1.0
        config = Configuration(
            (
                Circle(Point2(0, 0), 0.1),
                Circle(Point2(1, 0), 0.1),
                Circle(Point2(0, 1), 0.1),
            ),
            (1.0, 1.0, 1.0),
        )
        assert classify_case(config).is_floating


class TestFloatingSolve:
    def test_equilateral_point_and_objective(self, equilateral_config):
        result = solve(equilateral_config)
        assert result.case.is_floating
        assert result.point.distance_to(Point2(0.0, 0.0)) < 1e-9
        expected = 3.0 * (EQUILATERAL_CIRCUMRADIUS - 0.1)
        assert result.objective == pytest.approx(expected, abs=1e-9)

    def test_isogonal_sectors(self, equilateral_config):
        result = solve(equilateral_config)
        assert_close(result.sector_angles, [2 * math.pi / 3] * 3, 1e-9, "sectors")

    def test_objective_equals_weighted_distances(self):
        config = triangle_config(weights=(0.7, 1.1, 1.4))
        result = solve(config)
        total = sum(w * d for w, d in zip(config.weights, result.distances))
        assert result.objective == pytest.approx(total, abs=1e-12)

    def test_equilibrium_residual_small(self):
        config = triangle_config(weights=(0.7, 1.1, 1.4))
        result = solve(config)
        assert result.equilibrium_residual < 10 * config.tolerance

    def test_restarts_agree(self):
        config = triangle_config(weights=(0.9, 1.2, 1.0))
        rng = np.random.default_rng(11)
        base = solve(config).point
        centers = config.centers_array()
        lo, hi = centers.min(axis=0), centers.max(axis=0)
        for _ in range(10):
            start = Point2(*rng.uniform(lo, hi))
            other = solve(config, initial=start).point
            assert other.distance_to(base) < 1e-6

    def test_local_minimality_probes(self):
        config = triangle_config(weights=(0.9, 1.2, 1.0))
        result = solve(config)
        rng = np.random.default_rng(5)
        f0 = objective(config, result.point.as_array())
        for _ in range(100):
            ang = rng.uniform(0, 2 * math.pi)
            probe = result.point.as_array() + 1e-3 * np.array([math.cos(ang), math.sin(ang)])
            assert objective(config, probe) + 1e-12 >= f0

    def test_radius_shift_invariance(self):
        base = triangle_config(radii=(0.3, 0.25, 0.2))
        halved = Configuration(
            tuple(Circle(c.center, c.radius / 2) for c in base.circles),
            base.weights,
        )
        p1 = solve(base).point
        p2 = solve(halved).point
        assert p1.distance_to(p2) < 1e-9

    def test_modes_give_same_point(self):
        curve = triangle_config()
        as_set = Configuration(
            curve.circles, curve.weights, curve.tolerance, DistanceMode.TO_SET
        )
        assert solve(curve).point.distance_to(solve(as_set).point) < 1e-12

    def test_gradient_vanishes_at_solution(self):
        config = random_floating_config(4, seed=2)
        result = solve(config)
        g = finite_difference_gradient(config, result.point)
        assert np.linalg.norm(g) < 1e-5

    def test_sector_angles_sum(self):
        config = random_floating_config(5, seed=9)
        result = solve(config)
        assert sum(result.sector_angles) == pytest.approx(2 * math.pi, abs=1e-10)

    def test_solution_inside_disk_raises(self):
        # equilateral side 4: the minimizer sits 4/sqrt(3) ~= 2.31 from each
        # center, so a radius of 2.5 swallows it without overlapping others
        r_big = 2.5
        circumradius = 4.0 / math.sqrt(3.0)
        circles = []
        for k in range(3):
            ang = math.pi / 2 + 2 * math.pi * k / 3
            circles.append(
                Circle(
                    Point2(circumradius * math.cos(ang), circumradius * math.sin(ang)),
                    r_big if k == 0 else 0.1,
                )
            )
        config = Configuration(tuple(circles), (1.0, 1.0, 1.0))
        with pytest.raises(SolutionInsideDisk) as err:
            solve(config)
        assert err.value.index == 0

    def test_non_convergence(self):
        config = triangle_config(weights=(0.9, 1.2, 1.0))
        with pytest.raises(NonConvergence):
            solve(config, max_iters=1)


class TestAbsorbedSolve:
    def test_absorbed_point_at_center(self):
        config = triangle_config(weights=(10.0, 1.0, 1.0))
        result = solve(config)
        assert not result.case.is_floating
        assert result.case.index == 0
        assert result.point == config.circles[0].center
        assert result.sector_angles == ()

    def test_absorbed_distances_by_mode(self):
        curve = triangle_config(weights=(10.0, 1.0, 1.0))
        result = solve(curve)
        # own circle contributes its radius in curve mode
        assert result.distances[0] == pytest.approx(curve.circles[0].radius)
        for i in (1, 2):
            expected = curve.circles[0].center.distance_to(
                curve.circles[i].center
            ) - curve.circles[i].radius
            assert result.distances[i] == pytest.approx(expected, abs=1e-12)

        as_set = Configuration(
            curve.circles, curve.weights, curve.tolerance, DistanceMode.TO_SET
        )
        assert solve(as_set).distances[0] == 0.0

    def test_certificate_requires_floating(self):
        config = triangle_config(weights=(10.0, 1.0, 1.0))
        result = solve(config)
        with pytest.raises(CalledOnAbsorbed):
            certificate_residuals(result, config)


class TestCertificate:
    def test_equilateral_residuals_zero(self, equilateral_config):
        result = solve(equilateral_config)
        residuals = certificate_residuals(result, equilateral_config)
        assert max(abs(r) for r in residuals) < 1e-12

    def test_random_scalene_residuals(self):
        config = random_floating_config(4, seed=17)
        result = solve(config)
        residuals = certificate_residuals(result, config)
        assert max(abs(r) for r in residuals) < 1e-7

    def test_two_circles_on_one_ray(self):
        # circles 0 and 1 sit on the same ray from the point: a valid
        # floating solution with a zero-width sector, which the certificate
        # handles and the plasticity machinery rejects
        from ftcircles.scene import result_dict
        from ftcircles.svg import render_svg

        third = 2.0 * math.pi / 3.0
        config = Configuration(
            (
                Circle(Point2(2.0, 0.0), 0.5),
                Circle(Point2(4.0, 0.0), 0.5),
                Circle(Point2(2.0 * math.cos(third), 2.0 * math.sin(third)), 0.5),
                Circle(Point2(2.0 * math.cos(2 * third), 2.0 * math.sin(2 * third)), 0.5),
            ),
            (0.5, 0.5, 1.0, 1.0),
        )
        result = solve(config)
        assert result.case.is_floating
        assert max(abs(r) for r in certificate_residuals(result, config)) <= 1e-12
        assert sum(result.sector_angles) == pytest.approx(2 * math.pi, abs=1e-12)
        assert result_dict(config, result)["case"] == "floating"
        assert render_svg(config, result).count("<path") == 4
        with pytest.raises(InvalidConfiguration):
            SectorAngles.from_result(result)
