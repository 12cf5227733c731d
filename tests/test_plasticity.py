"""Plasticity system tests: ratio identities, transfer map, geometric invariance."""

import itertools
import math

import numpy as np
import pytest

from ftcircles import (
    Circle,
    Configuration,
    InvalidConfiguration,
    Point2,
    PreconditionViolated,
    SectorAngles,
    ShiftedConfigInvalid,
    SingularSystem,
    TriangleRatios,
    cosine_residuals,
    cosine_system_weights,
    plasticity4_preconditions,
    plasticity_n,
    random_floating_config,
    regular_polygon_config,
    shifted_configuration,
    sine_residuals,
    solve,
    transfer_coefficients,
    verify_geometric_plasticity,
)

from conftest import assert_close

# a four-ray layout satisfying the interior/exterior triangle hypotheses:
# consecutive sectors (150, 60, 80, 70) degrees
CANONICAL_AZIMUTHS = np.deg2rad([0.0, 150.0, 210.0, 290.0])


def grid_azimuths(steps):
    """Azimuths in (-pi, pi] of the rays at the given multiples of 30 degrees."""
    return [math.atan2(math.sin(k * math.pi / 6), math.cos(k * math.pi / 6)) for k in steps]


def ray_angle(angles, i, j):
    """Unsigned angle in [0, pi] between rays i and j."""
    return abs(math.remainder(angles.azimuths[j] - angles.azimuths[i], 2.0 * math.pi))


def solved_angles(n, seed):
    config = random_floating_config(n, seed=seed)
    result = solve(config)
    return config, SectorAngles.from_result(result)


class TestSectorAngles:
    def test_sectors_sum(self):
        angles = SectorAngles(CANONICAL_AZIMUTHS)
        assert sum(angles.sectors()) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_from_result_matches_pairwise(self):
        config, angles = solved_angles(4, seed=3)
        result = solve(config)
        from conftest import angle_at

        for i in range(4):
            for j in range(i + 1, 4):
                direct = angle_at(result.point, result.projections[i], result.projections[j])
                assert ray_angle(angles, i, j) == pytest.approx(direct, abs=1e-12)

    def test_from_result_is_the_solver_layout(self):
        # one ray layout per solution: the plasticity view of a result
        # reproduces the solver's own sectors bit for bit
        for n in (3, 4, 5, 6):
            for seed in range(40):
                result = solve(random_floating_config(n, seed=seed))
                angles = SectorAngles.from_result(result)
                assert angles.sectors() == result.sector_angles
                assert angles.cyclic_order() == result.sector_order

    def test_from_result_reuses_the_solver_sectors(self, monkeypatch):
        # the result already carries the cyclic order and sectors, so
        # building its layout sorts no rays; a direct build does
        import ftcircles.plasticity as plasticity_module

        result = solve(random_floating_config(5, seed=2))

        def no_sort(azimuths):
            raise AssertionError("sectors_of called")

        monkeypatch.setattr(plasticity_module, "sectors_of", no_sort)
        angles = SectorAngles.from_result(result)
        assert angles.azimuths.tolist() == list(result.ray_azimuths)
        assert angles.sectors() == result.sector_angles
        with pytest.raises(AssertionError, match="sectors_of called"):
            SectorAngles(result.ray_azimuths)

    @pytest.mark.parametrize(
        "azimuths, pair",
        [([0.0, 1e-10, 2e-10, 3.0], "0 and 1"), ([2e-10, 3.0, 0.0, 1e-10], "2 and 3")],
    )
    def test_equal_smallest_sectors_name_the_first(self, azimuths, pair):
        # two sectors of exactly 1e-10: the first in cyclic order is named
        with pytest.raises(InvalidConfiguration, match=f"^rays {pair} coincide$"):
            SectorAngles(azimuths)


class TestCosineSystem:
    def test_square_symmetric(self):
        angles = SectorAngles(np.deg2rad([0.0, 90.0, 180.0, 270.0]))
        w = cosine_system_weights(angles)
        assert_close(w, [0.25] * 4, 1e-12, "square weights")
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_three_rays_unique(self):
        # n = 3 has a unique solution: compare against the sine proportions
        config, angles = solved_angles(3, seed=8)
        w = cosine_system_weights(angles)
        total = sum(config.weights)
        assert_close(w, [x / total for x in config.weights], 1e-8, "n=3 recovery")

    def test_solution_satisfies_both_systems(self):
        for seed in (0, 5, 9):
            _, angles = solved_angles(4, seed=seed)
            w = cosine_system_weights(angles)
            assert np.max(np.abs(cosine_residuals(angles.azimuths, w))) < 1e-10
            assert np.max(np.abs(sine_residuals(angles.azimuths, w))) < 1e-10

    def test_family_member_consistency(self):
        # the returned member, fed back through the ratio equations at its
        # own free ratio, reproduces itself
        _, angles = solved_angles(4, seed=12)
        w = cosine_system_weights(angles)
        again = plasticity_n(angles, [w[3] / w[0]], total=float(w.sum()))
        assert_close(again, w, 1e-9, "family parametrization")


class TestPlasticity4:
    def test_recovers_true_weights(self):
        for seed in (1, 4, 7, 13):
            config, angles = solved_angles(4, seed=seed)
            w = config.weights_array()
            out = plasticity_n(angles, [w[3] / w[0]], total=float(w.sum()))
            assert_close(out, w, 1e-8, f"seed {seed}")

    def test_zero_free_ratio_reduces_to_triangle(self):
        angles = SectorAngles(CANONICAL_AZIMUTHS)
        out = plasticity_n(angles, [0.0], total=2.0)
        assert out[3] == 0.0
        ratios = TriangleRatios.from_angles(angles)
        scale = 2.0 / (1.0 + ratios.r2 + ratios.r3)
        assert_close(out[:3], scale * np.array([1.0, ratios.r2, ratios.r3]), 1e-12, "triangle")

    def test_zero_weight_sum_rejected(self):
        # the free ratio at which 1 + w2/w1 + w3/w1 + w4/w1 vanishes
        angles = SectorAngles(CANONICAL_AZIMUTHS)
        r = TriangleRatios.from_angles(angles)
        free = (1.0 + r.r2 + r.r3) / (r.r2 * r.q3[3] + r.r3 * r.q2[3] - 1.0)
        with pytest.raises(SingularSystem, match="sum to zero"):
            plasticity_n(angles, [free])

    def test_sweep_monotonicity(self):
        # increasing the free weight raises w2 and lowers w1, w3
        angles = SectorAngles(CANONICAL_AZIMUTHS)
        sweep = [plasticity_n(angles, [rho], total=1.0) for rho in (0.2, 0.3, 0.4, 0.5)]
        for a, b in zip(sweep, sweep[1:]):
            assert b[1] > a[1]
            assert b[0] < a[0]
            assert b[2] < a[2]

    def test_strict_mode_rejects_bad_layout(self):
        # regular cross layout: rays 1 and 3 collinear, hypotheses fail
        angles = SectorAngles(np.deg2rad([0.0, 70.0, 140.0, 210.0]))
        assert not plasticity4_preconditions(angles)

    def test_preconditions_hold_on_canonical(self):
        assert plasticity4_preconditions(SectorAngles(CANONICAL_AZIMUTHS))

    def test_preconditions_reflection_invariant(self):
        assert plasticity4_preconditions(SectorAngles(-CANONICAL_AZIMUTHS))

    def test_preconditions_reject_an_exact_tie(self):
        # sectors (60, 120, 60, 120) degrees: b2 + b3 = b3 + b4 = pi, the
        # apex lies on the edges of triangles {1,2,4} and {1,3,4}
        assert not plasticity4_preconditions(SectorAngles(grid_azimuths((0, 2, 6, 8))))

    def test_preconditions_match_exact_arithmetic_on_a_30_degree_grid(self):
        # every ordered choice of 4 of the 12 grid rays, decided on the
        # integer sector counts, where a sum equal to pi is exactly 6
        for ks in itertools.permutations(range(12), 4):
            order = sorted(range(4), key=lambda i: ks[i])
            k = order.index(0)
            seq = order[k:] + order[:k]
            if seq == [0, 1, 2, 3]:
                b1, b2, b3, b4 = ((ks[(i + 1) % 4] - ks[i]) % 12 for i in range(4))
            elif seq == [0, 3, 2, 1]:
                b1, b2, b3, b4 = ((ks[i] - ks[(i + 1) % 4]) % 12 for i in range(4))
            else:
                b1 = b2 = b3 = b4 = 12
            exact = b1 < 6 and b2 < 6 and b4 < 6 and b2 + b3 < 6 and b3 + b4 < 6
            assert plasticity4_preconditions(SectorAngles(grid_azimuths(ks))) == exact, ks


class TestTransferCoefficients:
    def test_reproduces_weights_n4(self):
        config, angles = solved_angles(4, seed=2)
        w = config.weights_array()
        coeffs = transfer_coefficients(
            TriangleRatios.from_angles(angles), n=4, total=float(w.sum())
        )
        free = w[3:].tolist()
        assert_close(coeffs.triangle_weights(free) + free, w, 1e-8, "n=4 transfer")

    def test_reproduces_weights_n5(self):
        config, angles = solved_angles(5, seed=6)
        w = config.weights_array()
        coeffs = transfer_coefficients(
            TriangleRatios.from_angles(angles), n=5, total=float(w.sum())
        )
        free = w[3:].tolist()
        assert_close(coeffs.triangle_weights(free) + free, w, 1e-8, "n=5 transfer")

    def test_triangle_weights_are_the_affine_map(self):
        # a float sum per row, within rounding of numpy's a @ free + const
        _, angles = solved_angles(5, seed=6)
        coeffs = transfer_coefficients(TriangleRatios.from_angles(angles), n=5, total=3.0)
        free = [0.7, 1.3]
        assert_close(coeffs.triangle_weights(free), coeffs.a @ free + coeffs.const, 1e-15, "sums")
        for bad in ([0.7], [0.7, 1.3, 0.1]):
            with pytest.raises(InvalidConfiguration, match="expected 2 free weights"):
                coeffs.triangle_weights(bad)

    def test_columns_sum_to_minus_one(self):
        _, angles = solved_angles(5, seed=10)
        coeffs = transfer_coefficients(TriangleRatios.from_angles(angles), n=5)
        assert_close(coeffs.a.sum(axis=0), [-1.0, -1.0], 1e-12, "column sums")

    def test_second_row_identity(self):
        # a2 = a1 * r2 - q3 * r2 column by column
        _, angles = solved_angles(5, seed=10)
        ratios = TriangleRatios.from_angles(angles)
        coeffs = transfer_coefficients(ratios, n=5)
        for k, j in enumerate(range(3, 5)):
            expected = coeffs.a[0, k] * ratios.r2 - ratios.q3[j] * ratios.r2
            assert coeffs.a[1, k] == pytest.approx(expected, abs=1e-14)

    def test_sign_pattern_canonical(self):
        angles = SectorAngles(CANONICAL_AZIMUTHS)
        coeffs = transfer_coefficients(TriangleRatios.from_angles(angles), n=4)
        a1, a2, a3 = coeffs.a[:, 0]
        assert a1 < 0 and a2 > 0 and a3 < 0

    def test_missing_ratio(self):
        _, angles = solved_angles(5, seed=10)
        full = TriangleRatios.from_angles(angles)
        truncated = TriangleRatios(n=5, r2=full.r2, r3=full.r3, q3={3: full.q3[3]}, q2=full.q2)
        with pytest.raises(InvalidConfiguration):
            transfer_coefficients(truncated, n=5)

    @pytest.mark.parametrize("n", [4, 6])
    def test_n_must_match_the_ratios(self, n):
        # with n = 4 the ratios of ray 4 would be silently left out
        _, angles = solved_angles(5, seed=10)
        with pytest.raises(InvalidConfiguration, match=f"got n = {n} for 5-ray ratios"):
            transfer_coefficients(TriangleRatios.from_angles(angles), n=n)


class TestPlasticityN:
    def test_zero_free_ratios_triangle(self):
        _, angles = solved_angles(5, seed=5)
        out = plasticity_n(angles, [0.0, 0.0], total=1.0)
        assert out[3] == 0.0 and out[4] == 0.0
        ratios = TriangleRatios.from_angles(angles)
        scale = 1.0 / (1.0 + ratios.r2 + ratios.r3)
        assert_close(out[:3], scale * np.array([1.0, ratios.r2, ratios.r3]), 1e-12, "triangle")

    def test_regular_pentagon_equal_weights(self):
        config = regular_polygon_config(5, circumradius=2.0, radius=0.2)
        result = solve(config)
        angles = SectorAngles.from_result(result)
        out = plasticity_n(angles, [1.0, 1.0], total=5.0)
        assert_close(out, [1.0] * 5, 1e-9, "pentagon recovery")

    def test_recovers_n6(self):
        config, angles = solved_angles(6, seed=3)
        w = config.weights_array()
        out = plasticity_n(angles, list(w[3:] / w[0]), total=float(w.sum()))
        assert_close(out, w, 1e-7, "n=6 recovery")


class TestResidualSystems:
    def test_closed_form_angles_satisfy_cosine_system(self):
        # rays laid out with the pairwise angles produced by weights (3,4,5)
        # must balance exactly those weights
        from ftcircles import angles_from_weights

        triple = angles_from_weights(3.0, 4.0, 5.0)
        azimuths = [0.0, triple.phi3, triple.phi3 + triple.phi1]
        angles = SectorAngles(azimuths)
        res = cosine_residuals(angles.azimuths, [3.0, 4.0, 5.0])
        assert np.max(np.abs(res)) < 1e-12
        assert np.max(np.abs(sine_residuals(angles.azimuths, [3.0, 4.0, 5.0]))) < 1e-12

    def test_solver_weights_satisfy_systems(self):
        for n, seed in ((4, 0), (5, 1), (6, 2)):
            config, angles = solved_angles(n, seed=seed)
            w = config.weights_array()
            assert np.max(np.abs(cosine_residuals(angles.azimuths, w))) < 1e-8
            assert np.max(np.abs(sine_residuals(angles.azimuths, w))) < 1e-8

    def test_displayed_sine_equations_in_canonical_layout(self):
        # with the hypotheses satisfied the signed residuals coincide term
        # by term with the displayed unsigned-sine equations
        angles = SectorAngles(CANONICAL_AZIMUTHS)
        w = plasticity_n(angles, [0.4], total=1.0)

        def a(i, j):
            return ray_angle(angles, i, j)

        eq12 = -w[0] * math.sin(a(1, 0)) + w[2] * math.sin(a(1, 2)) + w[3] * math.sin(a(1, 3))
        eq13 = -w[1] * math.sin(a(0, 1)) + w[2] * math.sin(a(0, 2)) + w[3] * math.sin(a(0, 3))
        eq_cross3 = -w[0] * math.sin(a(2, 0)) + w[1] * math.sin(a(2, 1)) - w[3] * math.sin(a(2, 3))
        assert abs(eq12) < 1e-12
        assert abs(eq13) < 1e-12
        assert abs(eq_cross3) < 1e-12


class TestGeometricPlasticity:
    def test_zero_shifts(self):
        config = random_floating_config(4, seed=14)
        assert verify_geometric_plasticity(config, [0.0] * 4)

    def test_random_radial_shifts(self):
        config = random_floating_config(4, seed=14)
        rng = np.random.default_rng(0)
        for _ in range(5):
            shifts = rng.uniform(-0.05, 0.15, size=4)
            assert verify_geometric_plasticity(config, shifts)

    def test_radius_change_also_invariant(self):
        config = random_floating_config(4, seed=14)
        new_radii = [0.5 * c.radius for c in config.circles]
        assert verify_geometric_plasticity(config, [0.0] * 4, new_radii=new_radii)

    def test_tangential_shift_moves_point(self):
        config = random_floating_config(4, seed=14)
        base = solve(config)
        p = base.point.as_array()
        circles = list(config.circles)
        c0 = circles[0]
        v = c0.center.as_array() - p
        v /= np.linalg.norm(v)
        perp = np.array([-v[1], v[0]])
        moved_center = c0.center.as_array() + 0.4 * perp
        circles[0] = Circle(Point2.from_array(moved_center), c0.radius)
        moved = solve(Configuration(tuple(circles), config.weights))
        assert moved.point.distance_to(base.point) > 1e-3

    def test_invalid_shift_rejected(self):
        config = random_floating_config(4, seed=14)
        result = solve(config)
        # pull circle 0 until the point lands inside its disk
        gap = result.point.distance_to(config.circles[0].center)
        with pytest.raises(ShiftedConfigInvalid):
            shifted_configuration(config, [-(gap - 0.5 * config.circles[0].radius), 0, 0, 0])

    def test_absorbed_instance_rejected(self):
        config = Configuration(
            (
                Circle(Point2(0, 0), 0.1),
                Circle(Point2(3, 0.2), 0.1),
                Circle(Point2(1.2, 2.6), 0.1),
            ),
            (10.0, 1.0, 1.0),
        )
        with pytest.raises(PreconditionViolated):
            verify_geometric_plasticity(config, [0.0, 0.0, 0.0])
