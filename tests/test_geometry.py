"""Geometry primitive tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcircles import (
    Circle,
    Configuration,
    DegenerateAngle,
    DegenerateProjection,
    DistanceMode,
    InvalidConfiguration,
    Point2,
    angle_at,
    distance_to_circle,
    project_onto_circle,
    sector_decomposition,
)
from ftcircles.geometry import wrap_angle

UNIT = Circle(Point2(0.0, 0.0), 1.0)


class TestProjection:
    def test_radial_axis(self):
        p = project_onto_circle(Point2(2.0, 0.0), UNIT)
        assert (p.x, p.y) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_radial_vertical(self):
        p = project_onto_circle(Point2(0.0, 3.0), UNIT)
        assert (p.x, p.y) == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_scaled_unit_vector(self):
        # unit vector of (3, 4) is (0.6, 0.8); scaled by r = 2
        p = project_onto_circle(Point2(3.0, 4.0), Circle(Point2(0.0, 0.0), 2.0))
        assert (p.x, p.y) == pytest.approx((1.2, 1.6), abs=1e-15)

    def test_lies_on_circle_and_is_radial(self):
        c = Circle(Point2(1.0, -2.0), 0.7)
        p = Point2(4.0, 1.0)
        proj = project_onto_circle(p, c)
        assert proj.distance_to(c.center) == pytest.approx(c.radius, abs=1e-12)
        cross = (p.x - c.center.x) * (proj.y - c.center.y) - (p.y - c.center.y) * (
            proj.x - c.center.x
        )
        assert abs(cross) < 1e-12

    def test_center_degenerate(self):
        with pytest.raises(DegenerateProjection):
            project_onto_circle(Point2(0.0, 5e-13), UNIT)


class TestDistance:
    def test_outside_curve(self):
        assert distance_to_circle(Point2(2.0, 0.0), UNIT) == pytest.approx(1.0)

    def test_inside_modes_differ(self):
        p = Point2(0.5, 0.0)
        assert distance_to_circle(p, UNIT, DistanceMode.TO_CURVE) == pytest.approx(0.5)
        assert distance_to_circle(p, UNIT, DistanceMode.TO_SET) == 0.0

    def test_both_modes_outside(self):
        p = Point2(3.0, 4.0)
        c = Circle(Point2(0.0, 0.0), 2.0)
        assert distance_to_circle(p, c, DistanceMode.TO_CURVE) == pytest.approx(3.0)
        assert distance_to_circle(p, c, DistanceMode.TO_SET) == pytest.approx(3.0)

    @given(
        x=st.floats(-10, 10),
        y=st.floats(-10, 10),
        r=st.floats(0.1, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_distance_consistency(self, x, y, r):
        c = Circle(Point2(0.3, -0.7), r)
        p = Point2(x, y)
        d = p.distance_to(c.center)
        if d <= r + 1e-6:
            return  # only claimed outside the disk
        proj = project_onto_circle(p, c)
        assert abs(p.distance_to(proj) - distance_to_circle(p, c)) < 1e-12


class TestAngle:
    def test_perpendicular(self):
        assert angle_at(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == pytest.approx(math.pi / 2)

    def test_opposite(self):
        assert angle_at(Point2(0, 0), Point2(1, 0), Point2(-1, 0)) == pytest.approx(math.pi)

    def test_diagonal(self):
        assert angle_at(Point2(0, 0), Point2(1, 0), Point2(1, 1)) == pytest.approx(math.pi / 4)

    def test_degenerate(self):
        with pytest.raises(DegenerateAngle):
            angle_at(Point2(0, 0), Point2(5e-13, 0), Point2(1, 1))

    @given(
        ax=st.floats(-5, 5), ay=st.floats(-5, 5),
        bx=st.floats(-5, 5), by=st.floats(-5, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, ax, ay, bx, by):
        apex = Point2(0.1, 0.2)
        a, b = Point2(ax, ay), Point2(bx, by)
        if apex.distance_to(a) < 1e-6 or apex.distance_to(b) < 1e-6:
            return
        assert angle_at(apex, a, b) == pytest.approx(angle_at(apex, b, a), abs=0)


class TestSectorDecomposition:
    def test_sums_to_two_pi(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            apex = Point2(*rng.uniform(-1, 1, 2))
            pts = [Point2(*q) for q in apex.as_array() + rng.uniform(0.5, 2, (5, 1)) * _dirs(rng, 5)]
            order, sectors = sector_decomposition(apex, pts)
            assert sorted(order) == list(range(5))
            assert sum(sectors) == pytest.approx(2.0 * math.pi, abs=1e-10)
            assert all(s >= 0.0 for s in sectors)

    def test_three_point_sectors_match_pairwise_angles(self):
        apex = Point2(0.0, 0.0)
        pts = [Point2(1.0, 0.2), Point2(-0.5, 1.0), Point2(-0.3, -1.2)]
        order, sectors = sector_decomposition(apex, pts)
        # each sector below pi equals the unsigned angle between its rays
        for k in range(3):
            i, j = order[k], order[(k + 1) % 3]
            if sectors[k] < math.pi:
                assert sectors[k] == pytest.approx(angle_at(apex, pts[i], pts[j]), abs=1e-12)


    def test_wrap_angle_matches_scalar_reference(self):
        def reference(x):
            if -math.pi < x <= math.pi:
                return x
            y = math.fmod(x + math.pi, 2.0 * math.pi)
            if y <= 0.0:
                y += 2.0 * math.pi
            return y - math.pi

        edges = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi, 0.0, -0.0]
        x = np.concatenate([np.random.default_rng(4).uniform(-20, 20, 2000), edges])
        expected = np.array([reference(float(v)) for v in x])
        assert wrap_angle(x).tobytes() == expected.tobytes()


def _dirs(rng, n):
    ang = rng.uniform(0, 2 * math.pi, n)
    return np.column_stack([np.cos(ang), np.sin(ang)])


class TestConfigurationValidation:
    def test_overlap_rejected(self):
        with pytest.raises(InvalidConfiguration):
            Configuration(
                (
                    Circle(Point2(0, 0), 1.0),
                    Circle(Point2(1.5, 0), 1.0),
                    Circle(Point2(5, 5), 1.0),
                ),
                (1.0, 1.0, 1.0),
            )

    def test_touching_rejected(self):
        with pytest.raises(InvalidConfiguration):
            Configuration(
                (
                    Circle(Point2(0, 0), 1.0),
                    Circle(Point2(2.0, 0), 1.0),
                    Circle(Point2(5, 5), 1.0),
                ),
                (1.0, 1.0, 1.0),
            )

    def test_arrays_built_once_read_only(self):
        config = Configuration(
            (
                Circle(Point2(0, 0), 0.5),
                Circle(Point2(2.0, 0), 0.25),
                Circle(Point2(5, 5), 1.0),
            ),
            (1.0, 2.0, 3.0),
        )
        for get in (config.centers_array, config.radii_array, config.weights_array):
            assert get() is get()
            assert not get().flags.writeable
        assert config.centers_array().tolist() == [[0, 0], [2, 0], [5, 5]]
        assert config.radii_array().tolist() == [0.5, 0.25, 1.0]
        assert config.weights_array().tolist() == [1.0, 2.0, 3.0]

    def test_weight_count_mismatch(self):
        with pytest.raises(InvalidConfiguration):
            Configuration(
                (
                    Circle(Point2(0, 0), 0.1),
                    Circle(Point2(2, 0), 0.1),
                    Circle(Point2(0, 2), 0.1),
                ),
                (1.0, 1.0),
            )

    def test_nonpositive_weight(self):
        with pytest.raises(InvalidConfiguration):
            Configuration(
                (
                    Circle(Point2(0, 0), 0.1),
                    Circle(Point2(2, 0), 0.1),
                    Circle(Point2(0, 2), 0.1),
                ),
                (1.0, 0.0, 1.0),
            )

    def test_too_few_circles(self):
        with pytest.raises(InvalidConfiguration):
            Configuration(
                (Circle(Point2(0, 0), 0.1), Circle(Point2(2, 0), 0.1)),
                (1.0, 1.0),
            )

    def test_nonfinite_point(self):
        with pytest.raises(InvalidConfiguration):
            Point2(float("nan"), 0.0)

    def test_bad_radius(self):
        with pytest.raises(InvalidConfiguration):
            Circle(Point2(0, 0), -1.0)
