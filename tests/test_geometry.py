"""Geometry primitive tests."""

import collections
import copy
import dataclasses
import math
import pickle
import warnings
from types import SimpleNamespace

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
    SectorAngles,
    project_onto_circle,
    solve,
)
from ftcircles import geometry
from ftcircles.geometry import (
    _LARGE_N,
    azimuths_at,
    first_touching_pair,
    pair_distances,
    sectors_of,
    wrap_angle,
)

from conftest import angle_at, distance_to_circle

UNIT = Circle(Point2(0.0, 0.0), 1.0)
# a center that is not a Point2, which Circle rejects
Center = collections.namedtuple("Center", "x y")
UNIT_TRIANGLE = (
    Circle(Point2(0.0, 0.0), 0.1),
    Circle(Point2(2.0, 0.0), 0.1),
    Circle(Point2(0.0, 2.0), 0.1),
)


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
            pts = apex.as_array() + rng.uniform(0.5, 2, (5, 1)) * _dirs(rng, 5)
            order, sectors = sectors_of(azimuths_at(apex, pts))
            assert sorted(order) == list(range(5))
            assert sum(sectors) == pytest.approx(2.0 * math.pi, abs=1e-10)
            assert all(s >= 0.0 for s in sectors)

    def test_three_point_sectors_match_pairwise_angles(self):
        apex = Point2(0.0, 0.0)
        pts = [Point2(1.0, 0.2), Point2(-0.5, 1.0), Point2(-0.3, -1.2)]
        order, sectors = sectors_of(azimuths_at(apex, [(p.x, p.y) for p in pts]))
        # each sector below pi equals the unsigned angle between its rays
        for k in range(3):
            i, j = order[k], order[(k + 1) % 3]
            if sectors[k] < math.pi:
                assert sectors[k] == pytest.approx(angle_at(apex, pts[i], pts[j]), abs=1e-12)

    def test_azimuths_of_rows_match_from_points(self):
        apex = Point2(0.3, -0.1)
        pts = [Point2(1.0, 0.2), Point2(-0.5, 1.0), Point2(-0.3, -1.2)]
        az = azimuths_at(apex, np.array([[p.x, p.y] for p in pts]))
        assert az == [math.atan2(p.y - apex.y, p.x - apex.x) for p in pts]
        assert SectorAngles.from_points(apex, pts).azimuths.tolist() == az

    def test_row_at_apex_is_named(self):
        with pytest.raises(DegenerateAngle, match="point 1 coincides with apex"):
            azimuths_at(Point2(1.0, 2.0), np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 0.0]]))


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

    def test_sectors_of_matches_wrapping_form(self):
        # sectors_of maps only -pi to pi when every azimuth lies in [-pi, pi];
        # wrapping every azimuth first, then np.diff/np.append, gives the same
        # bits on atan2 azimuths
        rng = np.random.default_rng(11)
        for k in range(5000):
            n = 3 + k % 8
            xy = rng.standard_normal((n, 2))
            xy[rng.integers(n)] = (-1.0, 0.0) if k % 3 == 0 else xy[0]  # -pi, or a repeat
            if k % 5 == 0:
                xy[rng.integers(n)] = (-1.0, 0.0) if k % 2 else (-1.0, -0.0)  # pi and -pi
            az = np.array([math.atan2(y, x) for x, y in xy.tolist()])
            assert sectors_of(az) == _wrapping_form(az), az
            # azimuths outside [-pi, pi] are wrapped first
            wide = az + 2.0 * math.pi * rng.integers(-2, 3, n)
            assert sectors_of(wide) == _wrapping_form(wide), wide
            if min(_wrapping_form(wide)[1]) >= 1e-9:
                assert SectorAngles(wide).sectors() == _wrapping_form(wide)[1]

    @pytest.mark.parametrize("edge", ["ties", "pi", "minus pi", "out of range", "signed zeros"])
    def test_sectors_of_at_large_n(self, edge):
        # one stable sort serves every size: from _LARGE_N rays on, with the
        # azimuths that once sent the sort down another path, it still gives
        # the wrapping form's order and sectors, signs of zero sectors too
        rng = np.random.default_rng(12)
        for _ in range(12):
            n = int(rng.integers(_LARGE_N, 300))
            xy = rng.standard_normal((n, 2))
            xy[rng.integers(n, size=n // 8)] = xy[0]  # ties in every case
            if edge == "pi":
                xy[rng.integers(n)] = (-1.0, 0.0)
            elif edge == "minus pi":
                xy[rng.integers(n)] = (-1.0, -0.0)  # moved to pi
            az = np.array([math.atan2(y, x) for x, y in xy.tolist()])
            if edge == "out of range":
                az[rng.integers(n, size=3)] += 2.0 * math.pi
            elif edge == "signed zeros":
                az[rng.integers(n, size=4)] = (0.0, -0.0, -0.0, 0.0)
            assert repr(sectors_of(az.tolist())) == repr(_wrapping_form(az)), edge


def _wrapping_form(azimuths):
    """Order and sectors of the azimuths, every one wrapped, sorted on arrays."""
    az = wrap_angle(azimuths)
    order = np.argsort(az, kind="stable")
    s = az[order]
    sectors = np.append(np.diff(s), 2.0 * math.pi - (s[-1] - s[0]))
    return tuple(order.tolist()), tuple(sectors.tolist())


def _dirs(rng, n):
    ang = rng.uniform(0, 2 * math.pi, n)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def three_circles():
    return Configuration(
        (
            Circle(Point2(0, 0), 0.5),
            Circle(Point2(2.0, 0), 0.25),
            Circle(Point2(5, 5), 1.0),
        ),
        (1.0, 2.0, 3.0),
    )


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
        config = three_circles()
        assert (config._centers, config._radii, config._weights) == (None, None, None)
        # copies rebuild through the constructor, read-only arrays included
        for c in (config, pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
            assert c == config
            for get in (c.centers_array, c.radii_array, c.weights_array):
                assert get() is get()
                assert not get().flags.writeable
                with pytest.raises(ValueError):
                    get()[0] = 1.0
            assert c.centers_array().tolist() == [[0, 0], [2, 0], [5, 5]]
            assert c.radii_array().tolist() == [0.5, 0.25, 1.0]
            assert c.weights_array().tolist() == [1.0, 2.0, 3.0]
            # the arrays hold the columns' values, centers as C-ordered rows
            assert c.centers_array().flags.c_contiguous
            assert c.centers_array().T.tolist() == [list(c.xs), list(c.ys)]
            assert c.radii_array().tolist() == list(c.radii)

    @pytest.mark.parametrize("n", [3, _LARGE_N])
    def test_validation_builds_no_arrays(self, n):
        # the overlap sweep runs on the columns at any n; the arrays wait for a reader
        circles = tuple(Circle(Point2(float(k), 0.5 * (k % 3)), 0.25) for k in range(n))
        config = Configuration(circles, (1.0,) * n)
        assert (config._centers, config._radii, config._weights) == (None, None, None)

    def test_point_and_circle_are_frozen_values(self):
        p, c = Point2(1, 2.5), Circle(Point2(1, 2.5), 0.5)
        assert repr(c) == "Circle(center=Point2(x=1, y=2.5), radius=0.5)"
        for value in (p, c):
            for other in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
                dataclasses.replace(value),
            ):
                assert other == value and hash(other) == hash(value) and repr(other) == repr(value)
        assert p == Point2(1.0, 2.5) and p != Point2(1.0, 2.0) and c != Circle(p, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.radius = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.y
        # keywords, and the fields as given
        assert Point2(y=2.5, x=1) == p and Circle(radius=0.5, center=p) == c
        assert type(Point2(1, 2.5).x) is int
        assert dataclasses.replace(c, radius=0.25) == Circle(p, 0.25)
        assert dataclasses.replace(p, y=np.float64(3.0)) == Point2(1, 3.0)
        # slots: no instance dict
        for value in (p, c):
            assert not hasattr(value, "__dict__")
            with pytest.raises((AttributeError, TypeError)):
                value.extra = 1
        assert [f.name for f in dataclasses.fields(c)] == ["center", "radius"]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Point2(x=math.nan, y=0.0), "coordinates must be finite, got (nan, 0.0)"),
            (lambda: Point2(0.0, "1"), "coordinates must be finite, got (0.0, 1)"),
            (lambda: dataclasses.replace(Point2(0, 0), x=math.inf), "coordinates must be finite, got (inf, 0)"),
            (lambda: Circle(center=Point2(0, 0), radius=0.0), "radius must be positive and finite, got 0.0"),
            (lambda: Circle(Point2(0, 0), "1"), "radius must be positive and finite, got 1"),
            (lambda: Circle(center=(0, 0), radius=1.0), "center must be a Point2, got (0, 0)"),
            (
                lambda: dataclasses.replace(Circle(Point2(0, 0), 1.0), radius=-1),
                "radius must be positive and finite, got -1",
            ),
        ],
    )
    def test_point_and_circle_messages(self, build, message):
        with pytest.raises(InvalidConfiguration) as info:
            build()
        assert str(info.value) == message

    def test_columns_hold_the_validated_floats(self):
        circles = (
            Circle(Point2(0, 0), 1),
            Circle(Point2(np.float64(3.0), 0.5), np.float32(0.25)),
            Circle(Point2(-4, 4.5), 2),
        )
        config = Configuration(circles, (1, np.float64(2.0), 3))
        assert config.xs == (0.0, 3.0, -4.0) and config.ys == (0.0, 0.5, 4.5)
        assert config.radii == (1.0, 0.25, 2.0) and config.weights == (1.0, 2.0, 3.0)
        for column in (config.xs, config.ys, config.radii, config.weights):
            assert all(type(x) is float for x in column)

    def test_built_arrays_do_not_change_equality(self):
        plain, built = three_circles(), three_circles()
        built.centers_array(), built.radii_array(), built.weights_array()
        assert plain == built and hash(plain) == hash(built) and repr(plain) == repr(built)
        assert {plain: 1}[built] == 1

    @pytest.mark.parametrize("state", ["unsolved", "solved", "arrays built"])
    @pytest.mark.parametrize(
        "copier",
        [
            lambda c: pickle.loads(pickle.dumps(c)),
            copy.copy,
            copy.deepcopy,
            dataclasses.replace,
        ],
        ids=["pickle", "copy", "deepcopy", "replace"],
    )
    def test_copies_get_fresh_state(self, state, copier):
        config = three_circles()
        if state == "solved":
            solve(config)
        elif state == "arrays built":
            config.centers_array(), config.radii_array(), config.weights_array()
        other = copier(config)
        assert other is not config and other == config and hash(other) == hash(config)
        assert (other.xs, other.ys, other.radii) == (config.xs, config.ys, config.radii)
        assert (other._solved, other._centers, other._radii, other._weights) == (None,) * 4
        assert other.centers_array().tolist() == [[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]]
        assert not other.centers_array().flags.writeable
        assert solve(other) == solve(config)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Point2("a", 0), r"^coordinates must be finite, got \(a, 0\)$"),
            (lambda: Point2(10**400, 0), r"^coordinates must be finite, got \(1000"),
            (lambda: Circle(Point2(0, 0), 10**400), "^radius must be positive and finite, got 1000"),
            (lambda: Circle(Point2(0, 0), None), "^radius must be positive and finite, got None$"),
            (lambda: Circle((0, 5), 0.1), r"^center must be a Point2, got \(0, 5\)$"),
            (
                lambda: Configuration((1, 2, 3), (1, 1, 1)),
                "^circle 0 must be a Circle, got 1$",
            ),
            (
                lambda: Configuration(UNIT_TRIANGLE + (Circle((9, 9), 0.1),), (1, 1, 1, 1)),
                r"^center must be a Point2, got \(9, 9\)$",
            ),
            (
                lambda: Configuration(UNIT_TRIANGLE + (Circle(Center("a", 9), 0.1),), (1, 1, 1, 1)),
                r"^center must be a Point2, got Center\(x='a', y=9\)$",
            ),
            (
                lambda: Configuration((Circle(Center(10**400, 9), 0.1),) + UNIT_TRIANGLE, (1, 1, 1, 1)),
                r"^center must be a Point2, got Center\(x=1000",
            ),
            (lambda: Configuration(None, (1, 1, 1)), "^circles must be a sequence, got None$"),
        ],
    )
    def test_bad_arguments_raise_invalid_configuration(self, build, message):
        # not TypeError, OverflowError, AttributeError or a bare ValueError;
        # weights and tolerance are in tests/test_arguments.py
        with pytest.raises(InvalidConfiguration, match=message):
            build()

    @pytest.mark.parametrize(
        "duck",
        [
            SimpleNamespace(center=SimpleNamespace(x=0.0, y=0.0), radius=-1.0),
            SimpleNamespace(center=SimpleNamespace(x=math.nan, y=5.0), radius=0.1),
            SimpleNamespace(center=Point2(5.0, 5.0), radius=0.1),
        ],
        ids=["negative radius", "nan center", "valid values"],
    )
    def test_duck_typed_circle_rejected(self, duck):
        # an object with a Circle's attributes has not passed Circle's checks
        with pytest.raises(InvalidConfiguration) as info:
            Configuration(UNIT_TRIANGLE + (duck,), (1, 1, 1, 1))
        assert str(info.value) == f"circle 3 must be a Circle, got {duck!r}"

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

    def test_error_names_first_touching_pair(self):
        # pairs (1, 3) and (2, 4) touch; the sweep meets (2, 4) first in x,
        # but the error names the lexicographically first pair
        circles = (
            Circle(Point2(9.0, 9.0), 0.5),
            Circle(Point2(4.0, 0.0), 1.0),
            Circle(Point2(0.0, 0.0), 1.0),
            Circle(Point2(5.5, 0.0), 0.5),
            Circle(Point2(1.5, 0.0), 0.5),
        )
        with pytest.raises(InvalidConfiguration, match="^circles 1 and 3 overlap or touch$"):
            Configuration(circles, (1.0,) * 5)


def reference_first_touching_pair(centers, radii):
    """The O(n^2) check the sweep replaced: the first touching entry of the full matrix."""
    touching = pair_distances(centers) <= radii[:, None] + radii
    if not touching.any():
        return None
    i, j = np.argwhere(touching)[0]
    return int(i), int(j)


def swept(centers, radii):
    """``first_touching_pair`` on the columns of a center array and a radius array."""
    return first_touching_pair(*centers.T.tolist(), radii.tolist())


def fuzz_circles(rng, n=None):
    """Centers and radii for the overlap check: sparse, gridded, equal and exactly touching.

    The scene has n circles, 3 to 40 when n is None. Half the scenes are
    scaled by 1e-12..1e12 and translated by up to 1e8 scene widths, which
    leaves few bits in the center differences.
    """
    n = int(rng.integers(3, 41)) if n is None else n
    side = 2.0 * math.sqrt(n)
    kind = int(rng.integers(4))
    centers = rng.uniform(0.0, side, (n, 2))
    radii = rng.uniform(0.05, 0.3, n)
    if kind == 1:  # centers on a 0.1 grid, radii multiples of 0.05: near ties
        centers = np.round(centers, 1)
        radii = np.round(radii, 1) / 2.0 + 0.05
    elif kind == 2:
        radii[:] = radii[0]
    if rng.random() < 0.5:
        scale = 10.0 ** rng.uniform(-12.0, 12.0)
        shift = rng.uniform(-1.0, 1.0, 2) * side * 10.0 ** rng.uniform(0.0, 8.0)
        centers, radii = (centers + shift) * scale, radii * scale
    if kind == 3:  # one pair touches exactly: r_i = r_j = d / 2, the rest shrink
        i, j = (int(k) for k in rng.choice(n, 2, replace=False))
        d = float(np.hypot(*(centers[i] - centers[j])))
        radii = radii * 0.1
        radii[i] = radii[j] = d / 2.0
    return centers, radii


class TestTouchingPairs:
    def test_sweep_names_the_matrix_pair(self):
        rng = np.random.default_rng(20240607)
        outcomes = {"none": 0, "pair": 0}
        for _ in range(20000):
            centers, radii = fuzz_circles(rng)
            expected = reference_first_touching_pair(centers, radii)
            assert swept(centers, radii) == expected, (centers.tolist(), radii.tolist())
            outcomes["none" if expected is None else "pair"] += 1
        # both outcomes are well represented
        assert min(outcomes.values()) > 5000, outcomes

    def test_arrays_name_the_matrix_pair(self):
        # from _LARGE_N circles on the sweep runs on arrays
        rng = np.random.default_rng(20261022)
        outcomes = {"none": 0, "pair": 0}
        for k in range(160):
            centers, radii = fuzz_circles(rng, int(rng.integers(_LARGE_N, 400)))
            if k % 2:
                radii = radii * 0.1  # sparse enough that most scenes do not touch
            expected = reference_first_touching_pair(centers, radii)
            assert swept(centers, radii) == expected, (centers.tolist(), radii.tolist())
            outcomes["none" if expected is None else "pair"] += 1
        assert min(outcomes.values()) > 40, outcomes

    @pytest.mark.parametrize("n", [3, _LARGE_N], ids=["loop", "arrays"])
    def test_exact_touch_at_every_scale(self, n):
        # r = d / 2 on both circles makes r_i + r_j == d exactly
        for exponent in range(-12, 13):
            s = 10.0**exponent
            centers = np.array([[0.1, 0.7], [0.4, 0.3], [5.0, 5.0]]) * s + 1e3 * s
            centers, radii = padded(centers, np.array([1.0, 1.0, s]), n)
            d = float(np.hypot(*(centers[0] - centers[1])))
            radii[:2] = d / 2.0
            assert swept(centers, radii) == (0, 1)
            radii[1] = np.nextafter(d / 2.0, 0.0)
            assert swept(centers, radii) == reference_first_touching_pair(centers, radii)

    @pytest.mark.parametrize("n", [3, _LARGE_N], ids=["loop", "arrays"])
    def test_break_uses_the_computed_difference(self, n):
        # x_1 - x_0 = 2 + 2**-52 rounds to 2.0 == r_0 + r_1, so the circles
        # touch; x_0 + (r_0 + r_1) rounds to 1 - 2**-52 < x_1, so a sweep that
        # compared x_j with x_i + reach would stop before this pair
        centers = np.array([[-1.0 - 2.0**-52, 0.0], [1.0, 0.0], [0.0, 10.0]])
        centers, radii = padded(centers, np.array([1.0, 1.0, 1.0]), n)
        assert centers[0, 0] + 2.0 < centers[1, 0]
        assert reference_first_touching_pair(centers, radii) == (0, 1)
        assert swept(centers, radii) == (0, 1)

    @pytest.mark.parametrize("scale", [1e-300, 1e300, "edge"])
    def test_extreme_scales_without_warnings(self, scale, monkeypatch):
        # x_i + reach and x_j - x_i overflow at the edge of the float range;
        # the loop's Python floats do so silently, and so must the arrays
        rng = np.random.default_rng(3)
        scenes = []
        for k in range(12):
            centers, radii = fuzz_circles(rng, _LARGE_N + 7 * k)
            # the box of centers becomes [-1, 1]^2, or [-1.79e308, 1.79e308]^2 at the edge
            low, width = centers.min(axis=0), np.ptp(centers, axis=0)
            size = 1.79e308 if scale == "edge" else scale
            centers = (2.0 * (centers - low) / width - 1.0) * size
            # radii below size / 100, where r_i + r_j and the loop's np.hypot stay finite
            radii = np.minimum(radii * (0.2 if k % 2 else 2.0) / width.max(), 0.01) * size
            scenes.append((centers, radii))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on_arrays = [swept(c, r) for c, r in scenes]
            monkeypatch.setattr(geometry, "_LARGE_N", 10**9)
            assert [swept(c, r) for c, r in scenes] == on_arrays
        with np.errstate(over="ignore"):
            assert on_arrays == [reference_first_touching_pair(c, r) for c, r in scenes]
        assert None in on_arrays and any(on_arrays)


def padded(centers, radii, n):
    """The circles, then circles of the largest radius R up to n in all, 4 R apart beyond them."""
    k, big = n - len(centers), radii.max()
    far = np.column_stack([centers[:, 0].max() + 4.0 * big * np.arange(1, k + 1), np.zeros(k)])
    return np.vstack([centers, far]), np.concatenate([radii, np.full(k, big)])
