"""Solver tests: classification, the floating certificate, absorbed returns."""

import copy
import dataclasses
import functools
import hashlib
import json
import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import ftcircles.solver as solver_module
from ftcircles import (
    CaseTag,
    Circle,
    Configuration,
    DistanceMode,
    FTCirclesError,
    InvalidConfiguration,
    NonConvergence,
    Point2,
    PreconditionViolated,
    SectorAngles,
    SolutionInsideDisk,
    certificate_residuals,
    classify_case,
    cosine_residuals,
    evolve_type_a,
    evolve_type_b,
    finite_difference_gradient,
    objective,
    project_onto_circle,
    random_dominated_config,
    random_floating_config,
    regular_polygon_config,
    solve,
    verify_geometric_plasticity,
)

from ftcircles.geometry import cosine_matrix, pair_distances

from conftest import EQUILATERAL_CIRCUMRADIUS, assert_close, distance_to_circle, triangle_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (the benchmark's seeded scene pools)

SOLVER_POINTS = Path(__file__).with_name("solver_points.json")
SOLVE_POINTS = Path(__file__).with_name("solve_points.json")


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


def resultant_norms(config):
    """Norm of the pull ``sum_{j!=i} w_j u(A_i, A_j)`` at every center, in O(n^2)."""
    centers = config.centers_array()
    weights = config.weights_array()
    diff = centers[None, :, :] - centers[:, None, :]
    pull = (weights[None, :, None] * diff / pair_distances(centers)[:, :, None]).sum(axis=1)
    return np.hypot(pull[:, 0], pull[:, 1])


def reference_case(config):
    """The case from testing every center: absorbed at the first one that passes."""
    for i, (norm, w) in enumerate(zip(resultant_norms(config), config.weights)):
        if norm <= w:
            return CaseTag.absorbed(i)
    return CaseTag.floating()


def each_loop(monkeypatch):
    """Runs the body of ``for _ in each_loop(...)`` once per arithmetic back end.

    The first pass runs the solver loop and the pull test on Python floats
    at every n, the second on arrays. Build configurations inside the body:
    a solved configuration keeps its result, so a second solve would not
    run the loop again.
    """
    for small_n in (math.inf, 0):
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_SMALL_N", small_n)
            yield


def minimize(config, max_iters=solver_module.DEFAULT_MAX_ITERS, initial=None):
    """``_minimize`` on the configuration, on the back end that ``each_loop`` selects."""
    arith = solver_module._arithmetic(config)
    return solver_module._minimize(arith, config.tolerance, max_iters, initial)


def back_end_calls(monkeypatch, method):
    """Records ``(back end, *args)`` for each call of ``method`` on either
    arithmetic back end, in a list that the caller reads and clears."""
    calls = []
    for cls in (solver_module._Floats, solver_module._Arrays):

        def recording(self, *args, real=getattr(cls, method)):
            calls.append((type(self).__name__, *args))
            return real(self, *args)

        monkeypatch.setattr(cls, method, recording)
    return calls


def _line(xs, weights):
    return Configuration(
        tuple(Circle(Point2(float(x), 0.0), 0.2) for x in xs), tuple(weights)
    )


class TestClassifyFromMinimizer:
    """``solve`` takes the case from where its loop stops (one O(n) test)."""

    # (scenes, absorbed, NonConvergence) per pool and seed: a change to the
    # benchmark's pools shows here instead of silently changing the inputs
    POOL_COUNTS = {
        ("small-n", 1): (256, 32, 0),
        ("small-n", 2): (256, 32, 0),
        ("large-n", 1): (8, 1, 0),
        ("large-n", 2): (8, 1, 0),
        ("oracle-sweep", 1): (32, 0, 0),
        ("oracle-sweep", 2): (32, 0, 0),
        ("near-boundary", 1): (96, 0, 5),
        ("near-boundary", 2): (96, 0, 9),
    }

    @pytest.mark.parametrize("pool, seed", sorted(POOL_COUNTS))
    def test_matches_reference_on_benchmark_pools(self, pool, seed):
        scenes = WORKLOADS[pool].make(seed)
        absorbed = failed = 0
        for scene in scenes:
            config = scene.configuration()
            expected = reference_case(config)
            try:
                case = solve(config).case
            except NonConvergence:
                # near-boundary scenes with eps < 1e-6; all floating
                assert expected.is_floating
                failed += 1
                continue
            assert case == expected
            assert classify_case(config) == expected
            absorbed += not case.is_floating
        assert (len(scenes), absorbed, failed) == self.POOL_COUNTS[pool, seed]

    def test_matches_reference_on_dominated_configs(self):
        for n in (3, 4, 5, 6):
            for seed in range(50):
                dominant = seed % n
                config = random_dominated_config(n, seed=seed, dominant=dominant)
                assert solve(config).case == reference_case(config) == CaseTag.absorbed(dominant)

    def test_one_pull_evaluation_per_solve(self, monkeypatch):
        # an absorbed solve reuses the test the loop ran on the center; a
        # floating one tests only the center nearest to its point
        calls = back_end_calls(monkeypatch, "pull")
        for _ in each_loop(monkeypatch):
            absorbed = random_dominated_config(5, seed=3, dominant=2)
            floating = random_floating_config(5, seed=3)
            calls.clear()
            assert solve(absorbed).case == CaseTag.absorbed(2)
            assert [m for _, m in calls] == [2]
            calls.clear()
            assert solve(floating).case.is_floating
            assert len(calls) == 1

    def test_point_on_a_center_is_absorbed_there(self):
        config = triangle_config(weights=(10.0, 1.0, 1.0))
        assert classify_case(config, config.circles[0].center) == CaseTag.absorbed(0)
        assert classify_case(config, Point2(1.0, 1.0)) == CaseTag.absorbed(0)
        assert classify_case(triangle_config(), Point2(1.4, 0.9)).is_floating

    @pytest.mark.parametrize("xs", [(0, 1, 2), (0, 1.5, 2)])
    def test_collinear_unique_minimizer(self, xs, monkeypatch):
        # on a line the minimizer is the weighted median, here the middle center
        for _ in each_loop(monkeypatch):
            config = _line(xs, (1.0, 1.0, 1.0))
            assert solve(config).case == reference_case(config) == CaseTag.absorbed(1)

    @pytest.mark.parametrize(
        "weights, start_x, index",
        [((1.0, 1.0, 1.0, 1.0), 1.5, 1), ((1.0, 1.5, 1.0, 1.5), 1.6, 2)],
    )
    def test_collinear_segment_of_minimizers(self, weights, start_x, index, monkeypatch):
        # centers 0, 1, 2, 3 with half the weight on each side of [A_1, A_2]:
        # every point of that segment is a minimizer and both ends pass the
        # test with equality. The Hessian is singular on a line, so the first
        # step is a Weiszfeld step; the center nearest to the start (the
        # weighted centroid; the first on a tie) passes the test before it
        # and is the case. The O(n^2) reference names the first passing
        # center instead.
        for _ in each_loop(monkeypatch):
            config = _line((0, 1, 2, 3), weights)
            centers, w = config.centers_array(), config.weights_array()
            norms = resultant_norms(config)
            assert norms[1] == weights[1] and norms[2] == weights[2]
            assert (w @ centers / w.sum()).tolist() == [start_x, 0.0]
            p, steps, _, nearest, pull = minimize(config, 100)
            assert list(p) == centers[index].tolist() and (steps, nearest) == (1, index)
            assert pull[1] == weights[index]
            result = solve(config)
            assert result.case == CaseTag.absorbed(index)
            assert reference_case(config) == CaseTag.absorbed(1)

        def center_sum(x):
            return float(w @ np.abs(centers[:, 0] - x))

        assert center_sum(1.0) == center_sum(start_x) == center_sum(2.0)

    def test_collinear_near_tie_absorbs_without_crawling(self, monkeypatch):
        # the pull at the middle center is 1.000999 - 1 = 0.000999 <= 0.001,
        # and the weighted centroid lies 5e-4 from it. Weiszfeld steps alone
        # would close that gap by a factor of about 0.999 each and exhaust
        # the budget; the test before the first one finds the center.
        calls = back_end_calls(monkeypatch, "pull")
        for _ in each_loop(monkeypatch):
            config = _line((0, 1, 2), (1.0, 0.001, 1.000999))
            assert reference_case(config) == CaseTag.absorbed(1)
            calls.clear()
            p, steps, _, nearest, _ = minimize(config, 1)
            tested = [m for _, m in calls]
            assert (p, steps, nearest, tested) == ((1.0, 0.0), 1, 1, [1])
            result = solve(config)
            assert result.case == CaseTag.absorbed(1) and result.iterations == 0

    def test_weiszfeld_steps_test_each_center_once(self, monkeypatch):
        # five collinear centers, minimizer at the heavy end: every step is a
        # Weiszfeld step. The centroid is nearest to A_3, which fails the test
        # once and is not tested again until the iterate is nearest to A_4
        calls = back_end_calls(monkeypatch, "pull")
        for _ in each_loop(monkeypatch):
            config = _line((0, 1, 2, 3, 4), (1.0, 1.0, 1.0, 1.0, 4.5))
            calls.clear()
            assert solve(config).case == reference_case(config) == CaseTag.absorbed(4)
            assert [m for _, m in calls] == [3, 4]

    def test_exact_tie_absorbs(self):
        # pull at center 0 is (1,0) + (0,1) + (-1,0) = (0,1): norm 1 == w_0
        config = Configuration(
            tuple(Circle(Point2(*c), 0.2) for c in ((0, 0), (1, 0), (0, 1), (-1, 0))),
            (1.0, 1.0, 1.0, 1.0),
        )
        pull, norm = solver_module._arithmetic(config).pull(0)
        assert pull == (0.0, 1.0) and norm == 1.0
        assert resultant_norms(config)[0] == 1.0
        result = solve(config)
        assert result.case == reference_case(config) == CaseTag.absorbed(0)
        assert result.equilibrium_residual == 0.0
        assert result.projections[0] == Point2(0.0, 0.2)

    def test_max_iters_limits_absorbed_scenes(self, monkeypatch):
        for _ in each_loop(monkeypatch):
            config = random_dominated_config(4, seed=0, dominant=1)
            steps = minimize(config, 100)[1]
            assert steps >= 1
            with pytest.raises(NonConvergence, match=f"in {steps - 1} steps"):
                minimize(config, steps - 1)
            p, _, _, nearest, _ = minimize(config, steps)
            assert list(p) == config.centers_array()[1].tolist() and nearest == 1
            result = solve(config)
            assert result.case == CaseTag.absorbed(1)
            assert result.iterations == 0

    def test_start_on_the_absorbing_center_needs_no_step(self, monkeypatch):
        config = random_dominated_config(4, seed=0, dominant=1)
        centers = config.centers_array()
        for _ in each_loop(monkeypatch):
            p, steps, _, nearest, _ = minimize(config, 0, centers[1])
            assert (list(p), steps, nearest) == (centers[1].tolist(), 0, 1)


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

    def test_restarts_agree(self, monkeypatch):
        # random starts plus every center, where the solver must step off
        configs = [triangle_config(weights=(0.9, 1.2, 1.0))]
        configs += [random_floating_config(n, seed=s) for n in (3, 4, 5, 6) for s in range(25)]
        rng = np.random.default_rng(11)
        for config in configs:
            base = solve(config).point.as_array()
            centers = config.centers_array()
            lo, hi = centers.min(axis=0), centers.max(axis=0)
            starts = [rng.uniform(lo, hi) for _ in range(10)]
            for _ in each_loop(monkeypatch):
                for start in starts + list(centers):
                    other = minimize(config, initial=start)[0]
                    assert np.hypot(*np.subtract(other, base)) < 1e-6

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

    def test_large_n_accepts_steps_within_rounding(self):
        # at n = 200 the last Newton step can raise the computed objective by
        # an ulp while it cuts the residual; rejecting it stalls the solve
        grid = np.stack(np.meshgrid(np.arange(-11.0, 12.0), np.arange(-11.0, 12.0)), -1)
        lattice = grid.reshape(-1, 2)
        ring = np.hypot(lattice[:, 0], lattice[:, 1])
        lattice = lattice[(ring >= 5.25) & (ring <= 10.5)]
        for seed in (2, 19, 21):
            rng = np.random.default_rng(seed)
            centers = lattice[rng.choice(len(lattice), size=200, replace=False)]
            centers = centers + rng.uniform(-0.2, 0.2, size=(200, 2))
            weights = rng.uniform(0.5, 1.5, size=200)
            config = Configuration(
                tuple(Circle(Point2(*c), 0.05) for c in centers), tuple(weights)
            )
            result = solve(config)
            assert result.case.is_floating and result.iterations <= 100
            assert result.equilibrium_residual < 10 * config.tolerance

    def test_newton_step_count(self):
        # Newton is the primary method: a handful of steps per solve
        steps = [
            solve(random_floating_config(n, seed=seed)).iterations
            for n in (3, 4, 5, 6)
            for seed in range(50)
        ]
        assert np.median(steps) <= 8
        # here Newton heads for a center that is not optimal; trying the
        # center and stepping off it beats creeping toward it (30 steps)
        assert solve(random_floating_config(4, seed=447)).iterations <= 12

    def test_non_convergence(self, monkeypatch):
        config = triangle_config(weights=(0.9, 1.2, 1.0))
        for _ in each_loop(monkeypatch):
            with pytest.raises(NonConvergence, match="in 1 steps"):
                minimize(config, 1)

    @pytest.mark.parametrize(
        "centers, radii, weights",
        [
            # relative margin 2.1e-7 from absorption: Newton reaches an
            # exact fixed point whose residual is above 10 * tolerance
            (
                [[0.7008692930687466, 2.517843857091286],
                 [3.0986207376019355, 2.033922188303402],
                 [0.24754841557941276, 3.7568109056797176],
                 [1.708682204543856, 3.7609368512336183],
                 [1.7058515404087347, 0.09092711249060548]],
                [4.4863471736475677e-08, 0.33471127162953895, 0.3144651072731007,
                 0.3012332136539061, 0.4481093720216032],
                [2.0115995356258045, 1.354858910653428, 1.0116839878911164,
                 0.75391200318782, 1.4507389292947956],
            ),
            # margin 2.5e-8: the iterates alternate between two points
            (
                [[2.882411791948511, 0.6375908112031698],
                 [0.04110480875532785, 3.780381693057171],
                 [0.09021844253704092, 1.1649098405687708],
                 [3.3544954473574364, 3.969722185418382],
                 [1.4924510503118444, 3.2497838077948558],
                 [0.61345726076968, 2.385509924379592]],
                [0.6282345568140648, 0.3126103691789552, 0.2174790527959851,
                 0.5402052227404748, 4.249814085317083e-09, 0.09698520927303647],
                [0.6876978041799986, 1.2950640713596904, 1.0272333662872,
                 0.9297948119172347, 1.9067648255302752, 1.0019136162264952],
            ),
        ],
        ids=["fixed-point", "two-cycle"],
    )
    def test_revisited_point_fails_fast(self, centers, radii, weights, monkeypatch):
        for _ in each_loop(monkeypatch):
            config = Configuration(
                tuple(Circle(Point2(*c), r) for c, r in zip(centers, radii)), tuple(weights)
            )
            with pytest.raises(NonConvergence) as info:
                solve(config)
            steps = re.search(r"after (\d+) steps", str(info.value))
            assert steps is not None and int(steps.group(1)) <= 50

    def test_cycle_of_any_period_fails_fast(self, monkeypatch):
        # margin 2.4e-8 from absorption: the iterates enter a cycle of three
        # points (on arrays) or four (on floats), which a test against the
        # previous two alone never sees
        centers = [
            ("0x1.3a23fd7cb43eap+1", "0x1.cad4d93baacd8p-2"),
            ("0x1.781a8f7ce1130p+0", "0x1.5dfa97a118d16p+0"),
            ("0x1.498079e283da0p-2", "0x1.ec6790c5978c9p+1"),
            ("0x1.06b09e958a051p+1", "0x1.aed1341ae8c9ap+1"),
            ("0x1.dc03baa56260dp+1", "0x1.c3c6c8a266758p-1"),
        ]
        radii = ["0x1.2abdc08646882p-27", "0x1.52abaf2aa404dp-3", "0x1.33270ca9533edp-1",
                 "0x1.4565f597d5d9ap-2", "0x1.3b8b4cadf0450p-2"]
        weights = ["0x1.9cded1924fc83p+1", "0x1.80a12f229d6e9p-1", "0x1.547775f0bbcfep+0",
                   "0x1.2b69f18cb982fp+0", "0x1.4d095d67dd68ep+0"]
        for _ in each_loop(monkeypatch):
            config = Configuration(
                tuple(
                    Circle(Point2(float.fromhex(x), float.fromhex(y)), float.fromhex(r))
                    for (x, y), r in zip(centers, radii)
                ),
                tuple(map(float.fromhex, weights)),
            )
            with pytest.raises(NonConvergence, match="revisits a point") as info:
                solve(config)
            steps = re.search(r"after (\d+) steps", str(info.value))
            assert steps is not None and int(steps.group(1)) <= 50

    @pytest.mark.parametrize(
        "scene, scales",
        [
            # the pull's squares underflow to 0: a bare ZeroDivisionError on
            # floats, and NaN pulls for the whole budget on arrays
            ("triangle", [10.0**-e for e in range(165, 310, 5)]),
            ("polygon-32", [1e-170, 1e-200, 1e-300]),
        ],
    )
    def test_tiny_scene_fails_fast_or_solves(self, scene, scales, monkeypatch):
        if scene == "triangle":
            centers, radius, weights = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)), 0.1, (1.0,) * 3
        else:
            base = regular_polygon_config(32, circumradius=32.0)
            centers, radius, weights = zip(base.xs, base.ys), base.radii[0], base.weights
        centers = tuple(centers)
        for _ in each_loop(monkeypatch):
            for s in scales:
                config = Configuration(
                    tuple(Circle(Point2(x * s, y * s), radius * s) for x, y in centers), weights
                )
                try:
                    solve(config)
                except NonConvergence as error:
                    steps = re.search(r"after (\d+) steps", str(error))
                    assert steps is not None and int(steps.group(1)) <= 50, (s, str(error))
                except FTCirclesError:
                    pass

    @pytest.mark.parametrize("n, seed", [(5, seed) for seed in range(6)] + [(34, 2)])
    def test_huge_scene_is_never_absorbed(self, n, seed, monkeypatch):
        # the pull's squares overflow to inf from about 1e154 on: every pull
        # norm read 0, and these floating scenes came out absorbed
        base = random_floating_config(n, seed)
        assert solve(base).case.is_floating
        circles = tuple(zip(base.xs, base.ys, base.radii))
        for _ in each_loop(monkeypatch):
            for s in (1e160, 1e200, 1e300):
                config = Configuration(
                    tuple(Circle(Point2(x * s, y * s), r * s) for x, y, r in circles),
                    base.weights,
                )
                try:
                    case = solve(config).case
                except FTCirclesError:
                    continue
                assert case.is_floating, (s, str(case))


@functools.cache
def _loop_scenes():
    """Named scenes for the loop comparison, with n on both sides of ``_SMALL_N``.

    Built once per session: the tests here only run ``_minimize`` and
    ``classify_case`` at a given point, so no scene keeps a stored result.
    """
    scenes = {}
    for mode in DistanceMode:
        for n in range(3, 17):
            for seed in range(5):
                scenes[f"floating-{mode.name}-{n}-{seed}"] = random_floating_config(
                    n, seed, distance_mode=mode
                )
                scenes[f"dominated-{mode.name}-{n}-{seed}"] = random_dominated_config(
                    n, seed, dominant=seed % n, distance_mode=mode
                )
    for n in range(3, 13):
        scenes[f"polygon-{n}"] = regular_polygon_config(n)
    for pool, seeds in (("small-n", (1, 2)), ("large-n", (1,))):
        for seed in seeds:
            for i, scene in enumerate(WORKLOADS[pool].make(seed)):
                scenes[f"{pool}-{seed}-{i}"] = scene.configuration()
    return scenes


def _pinned_scenes():
    """``_loop_scenes`` and the near-boundary pool of seed 1, where the loop
    also fails: the scenes of ``solver_points.json``."""
    scenes = dict(_loop_scenes())
    for i, scene in enumerate(WORKLOADS["near-boundary"].make(1)):
        scenes[f"near-boundary-1-{i}"] = scene.configuration()
    return scenes


def _loop_runs():
    """Name -> (configuration, start) of each pinned loop run.

    Every scene of ``_pinned_scenes`` runs from its weighted centroid (start
    None). The generated scenes with n <= 8 and seed <= 2 also run from
    each of their centers (start k, named ``...-from-k``): a start on a
    center that does not absorb takes the Vardi-Zhang step off it, which
    runs from the centroid rarely reach.
    """
    runs = {name: (config, None) for name, config in _pinned_scenes().items()}
    scenes = _loop_scenes()
    for kind in ("floating", "dominated"):
        for mode in DistanceMode:
            for n in range(3, 9):
                for seed in range(3):
                    name = f"{kind}-{mode.name}-{n}-{seed}"
                    for k in range(n):
                        runs[f"{name}-from-{k}"] = (scenes[name], k)
    return runs


def _loop_outputs(monkeypatch):
    """Name -> ``_minimize``'s output on each back end, as ``solver_points.json`` holds it.

    An output is ``[x, y, steps, residual, nearest, pull]`` with the floats
    as ``float.hex`` and ``pull`` as ``[x, y, norm]`` or None, or the
    message of the NonConvergence raised.
    """
    outputs = {}
    for name, (config, start) in _loop_runs().items():
        initial = None if start is None else config.centers_array()[start]
        outputs[name] = []
        for _ in each_loop(monkeypatch):
            try:
                p, steps, residual, nearest, pull = minimize(config, initial=initial)
            except NonConvergence as err:
                outputs[name].append(str(err))
                continue
            if pull is not None:
                pull = [*map(float.hex, pull[0]), float.hex(pull[1])]
            x, y = map(float.hex, p)
            outputs[name].append([x, y, steps, float.hex(residual), nearest, pull])
    return outputs


class TestBothLoops:
    """The solver loop takes the same steps on both arithmetic back ends:
    Python floats (n < ``_SMALL_N``) and arrays."""

    def test_points_agree_to_rounding(self, monkeypatch):
        # the back ends sum in different orders, so points may differ by
        # rounding, not in the case or the error; the nearest center is the
        # same unless two centers are equally near up to rounding (at the
        # center of a regular polygon, all are)
        sizes = set()
        for config in _loop_scenes().values():
            centers = config.centers_array()
            size = float((centers.max(axis=0) - centers.min(axis=0)).max())
            sizes.add(config.n >= solver_module._SMALL_N)
            outcomes = []
            for _ in each_loop(monkeypatch):
                try:
                    p, _, _, nearest, _ = minimize(config)
                except NonConvergence:
                    outcomes.append(NonConvergence)
                    continue
                outcomes.append((p, nearest, classify_case(config, Point2.from_array(p), nearest)))
            floats, arrays = outcomes
            if NonConvergence in outcomes:
                assert floats == arrays, config
                continue
            (p, i, case), (q, j, other) = floats, arrays
            assert case == other and np.hypot(*np.subtract(p, q)) <= 1e-14 * size, config
            d = np.hypot(*(centers - p).T)
            assert i == j or abs(d[i] - d[j]) <= 1e-14 * size, config
        assert sizes == {False, True}

    def test_outputs_match_pinned(self, monkeypatch):
        # the loop's output on each back end, bit for bit, on every scene: a
        # change that is meant to keep the arithmetic leaves this file as it is
        pinned = json.loads(SOLVER_POINTS.read_text())
        outputs = _loop_outputs(monkeypatch)
        assert sorted(pinned) == sorted(outputs)
        assert [name for name in outputs if outputs[name] != pinned[name]] == []

    def test_back_end_by_size(self, monkeypatch):
        # the loop (its start is the centroid) and classify_case's pull test
        # at the nearest center run on floats below _SMALL_N, on arrays from it up
        starts = back_end_calls(monkeypatch, "centroid")
        pulls = back_end_calls(monkeypatch, "pull")
        for n in (3, 31, 32, 200):
            assert classify_case(regular_polygon_config(n, circumradius=float(n))).is_floating
        expected = ["_Floats", "_Floats", "_Arrays", "_Arrays"]
        assert [back_end for back_end, in starts] == expected
        assert [back_end for back_end, _ in pulls] == expected

    def test_small_solve_builds_no_arrays(self):
        # below _SMALL_N the solve and its certificate read the float
        # columns, so no array is built; from _SMALL_N up the back end
        # builds the centers and weights on first access
        small = [
            random_floating_config(5, seed=3),
            random_dominated_config(5, seed=3, dominant=2),
            regular_polygon_config(31, circumradius=31.0),
        ]
        for config in small:
            result = solve(config)
            if result.case.is_floating:
                certificate_residuals(result, config)
            assert (config._centers, config._radii, config._weights) == (None, None, None)
        large = regular_polygon_config(32, circumradius=32.0)
        solve(large)
        assert large._centers is not None and large._weights is not None


def _rebuilt(config, centers, order):
    """The configuration with new centers, circles and weights taken in ``order``."""
    radii = config.radii_array()
    circles = tuple(Circle(Point2(*centers[i]), float(radii[i])) for i in order)
    return Configuration(circles, tuple(config.weights[i] for i in order))


class TestEquivariance:
    def test_translation_rotation_permutation(self):
        # the point moves with the circles and ignores their order
        rng = np.random.default_rng(3)
        worst = 0.0
        for n in (3, 4, 5, 6):
            for seed in range(60):
                config = random_floating_config(n, seed=seed)
                centers = config.centers_array()
                base = solve(config).point.as_array()
                offset = rng.uniform(-100.0, 100.0, size=2)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
                order = rng.permutation(n)
                cases = [
                    (_rebuilt(config, centers + offset, range(n)), base + offset),
                    (_rebuilt(config, centers @ rot.T, range(n)), rot @ base),
                    (_rebuilt(config, centers, order), base),
                ]
                for moved, expected in cases:
                    gap = float(np.hypot(*(solve(moved).point.as_array() - expected)))
                    worst = max(worst, gap)
        assert worst <= 1e-8


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
        with pytest.raises(PreconditionViolated):
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

    def test_matches_the_cosine_matrix_form(self):
        # the O(n) projection of the resultant rounds differently from the
        # cosine matrix product it replaced, by at most n * eps * sum(w);
        # the plasticity residuals are the same computation
        configs = [
            scene.configuration() for seed in (1, 2, 3) for scene in WORKLOADS["large-n"].make(seed)
        ]
        configs += [random_floating_config(n, seed=seed) for n in (3, 4, 5, 6) for seed in range(300)]
        floating = 0
        for config in configs:
            result = solve(config)
            if not result.case.is_floating:
                continue
            floating += 1
            w = config.weights_array()
            residuals = certificate_residuals(result, config)
            matrix_form = cosine_matrix(result.ray_azimuths) @ w
            gap = float(np.max(np.abs(np.array(residuals) - matrix_form)))
            assert gap <= config.n * np.finfo(float).eps * w.sum(), (config.n, gap)
            angles = SectorAngles.from_result(result)
            assert cosine_residuals(angles.azimuths, w).tolist() == residuals
        assert floating == 1221


@pytest.fixture
def minimize_calls(monkeypatch):
    """Records every run of the solver loop."""
    calls = []
    real = solver_module._minimize

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_minimize", counting)
    return calls


def _swallowing_config(big):
    """Equilateral scene of side 4 whose circle ``big`` has radius 2.5 and
    contains the minimizer, about 2.31 from each center."""
    circumradius = 4.0 / math.sqrt(3.0)
    circles = []
    for k in range(3):
        ang = math.pi / 2 + 2 * math.pi * k / 3
        circles.append(
            Circle(
                Point2(circumradius * math.cos(ang), circumradius * math.sin(ang)),
                2.5 if k == big else 0.1,
            )
        )
    return Configuration(tuple(circles), (1.0, 1.0, 1.0))


class TestStoredResult:
    def test_repeat_default_solve_returns_stored_result(self, minimize_calls, monkeypatch):
        for _ in each_loop(monkeypatch):
            minimize_calls.clear()
            config = triangle_config(weights=(0.9, 1.2, 1.0))
            first = solve(config)
            assert solve(config) is first
            assert len(minimize_calls) == 1

    @pytest.mark.parametrize(
        "config, error",
        [
            (_swallowing_config(0), SolutionInsideDisk),
            # a tolerance no residual reaches: the loop stops at an exact
            # fixed point and raises NonConvergence
            (
                Configuration(triangle_config().circles, (1.0, 1.0, 1.0), tolerance=1e-300),
                NonConvergence,
            ),
        ],
        ids=["inside-disk", "non-convergence"],
    )
    def test_errors_are_raised_again(self, minimize_calls, config, error, monkeypatch):
        for _ in each_loop(monkeypatch):
            minimize_calls.clear()
            for _ in range(2):
                with pytest.raises(error):
                    solve(config)
            assert len(minimize_calls) == 2

    def test_copies_start_without_stored_result(self, minimize_calls, monkeypatch):
        for _ in each_loop(monkeypatch):
            minimize_calls.clear()
            config = triangle_config()
            first = solve(config)
            for duplicate in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
                again = solve(duplicate)
                assert again is not first and again == first
            assert len(minimize_calls) == 3

    def test_analysis_chain_solves_each_configuration_once(self, minimize_calls, monkeypatch):
        # the base configuration once, its radially shifted copy once
        for _ in each_loop(monkeypatch):
            minimize_calls.clear()
            config = regular_polygon_config(5, circumradius=2.0, radius=0.2)
            evolve_type_a(config)
            evolve_type_b(config)
            assert verify_geometric_plasticity(config, [0.1, 0.0, 0.2, 0.05, 0.15])
            assert len(minimize_calls) == 2


def _assembly_scenes():
    for n in (3, 4, 5, 6):
        for seed in range(50):
            config = random_floating_config(n, seed=seed)
            yield config
            if seed < 10:
                yield Configuration(
                    config.circles, config.weights, config.tolerance, DistanceMode.TO_SET
                )
    for n in (3, 4, 5, 6):
        for seed in range(10):
            for mode in DistanceMode:
                yield random_dominated_config(n, seed=seed, dominant=seed % n, distance_mode=mode)
    for n in (32, 40):
        yield regular_polygon_config(n, circumradius=float(n))
    for scene in WORKLOADS["large-n"].make(1):
        yield scene.configuration()


def _solve_outputs():
    """Name -> ``solve``'s result on each scene of ``_pinned_scenes``, as
    ``solve_points.json`` holds it.

    An output is ``[case, digest]``: the case as text and the SHA-256 of
    every other ``SolveResult`` field written out, floats as ``float.hex``.
    A failing solve gives ``"ErrorType: message"``. Each scene is solved as
    a fresh copy, so the shared scenes keep no stored result.
    """
    outputs = {}
    for name, config in _pinned_scenes().items():
        try:
            result = solve(copy.copy(config))
        except FTCirclesError as err:
            outputs[name] = f"{type(err).__name__}: {err}"
            continue
        text = [
            f"{field.name}: {_hex_text(getattr(result, field.name))}"
            for field in dataclasses.fields(result)
            if field.name != "case"
        ]
        digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
        outputs[name] = [str(result.case), digest]
    return outputs


def _hex_text(value):
    """``value`` as text, with every float in it written as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Point2):
        return _hex_text((value.x, value.y))
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_hex_text, value)) + ")"
    return repr(value)


class TestAssembly:
    def test_results_match_pinned(self):
        # every SolveResult field, bit for bit, and every error on the pinned
        # scenes: a change that is meant to keep the results leaves this file
        # as it is
        pinned = json.loads(SOLVE_POINTS.read_text())
        outputs = _solve_outputs()
        assert sorted(pinned) == sorted(outputs)
        assert [name for name in outputs if outputs[name] != pinned[name]] == []

    def test_matches_per_circle_geometry(self):
        # the one-pass assembly reports what the per-circle functions give
        for config in _assembly_scenes():
            result = solve(config)
            point = result.point
            own = None if result.case.is_floating else result.case.index
            for i, c in enumerate(config.circles):
                if i != own:
                    assert result.projections[i] == project_onto_circle(point, c)
                assert result.distances[i] == distance_to_circle(point, c, config.distance_mode)
            f = objective(config, point.as_array())
            assert abs(result.objective - f) <= 1e-15 * f
            if own is None:
                # the rays to the projections, and their order and sectors
                # from a stable sort on azimuths wrapped to (-pi, pi]
                assert list(result.ray_azimuths) == [
                    math.atan2(y - point.y, x - point.x) for x, y in result.projection_xy
                ]
                az = [math.pi if a == -math.pi else a for a in result.ray_azimuths]
                order = sorted(range(config.n), key=lambda i: (az[i], i))
                ordered = [az[i] for i in order]
                sectors = [b - a for a, b in zip(ordered, ordered[1:])]
                sectors.append(2.0 * math.pi - (ordered[-1] - ordered[0]))
                assert result.sector_order == tuple(order)
                assert result.sector_angles == tuple(sectors)
                continue
            # the absorbing center projects along the pull of the others
            centers = config.centers_array()
            others = np.arange(config.n) != own
            u = centers[others] - centers[own]
            pull = (config.weights_array()[others, None] * u
                    / np.hypot(u[:, 0], u[:, 1])[:, None]).sum(axis=0)
            expected = centers[own] + config.circles[own].radius * pull / np.hypot(*pull)
            got = result.projections[own].as_array()
            assert np.hypot(*(got - expected)) <= 1e-15 * np.abs(centers).max()

    @pytest.mark.parametrize("big", [0, 1, 2])
    def test_inside_disk_names_the_disk(self, big):
        with pytest.raises(SolutionInsideDisk) as err:
            solve(_swallowing_config(big))
        assert err.value.index == big


class TestSolveResultValue:
    """``SolveResult`` is a value: equality, hashing and copies see every projection."""

    SCENES = {
        "floating": random_floating_config(5, seed=3),
        "absorbed": random_dominated_config(4, seed=1, dominant=2),
    }

    @pytest.fixture(params=sorted(SCENES))
    def solved(self, request):
        config = self.SCENES[request.param]
        return config, solve(config)

    def test_one_changed_projection_compares_unequal(self, solved):
        _, result = solved
        xy = list(result.projection_xy)
        x, y = xy[1]
        xy[1] = (math.nextafter(x, math.inf), y)
        changed = dataclasses.replace(result, projection_xy=tuple(xy))
        assert changed != result
        assert changed.projections != result.projections
        assert hash(dataclasses.replace(result)) == hash(result)
        assert isinstance(hash(changed), int)

    def test_copies_compare_equal(self, solved):
        _, result = solved
        for duplicate in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert duplicate == result
            assert hash(duplicate) == hash(result)
            assert duplicate.projections == result.projections

    def test_projections_are_the_point2_projections(self, solved):
        config, result = solved
        projections = result.projections
        assert type(projections) is tuple
        assert all(type(p) is Point2 for p in projections)
        assert [(p.x, p.y) for p in projections] == list(result.projection_xy)
        own = None if result.case.is_floating else result.case.index
        for i, c in enumerate(config.circles):
            if i != own:
                assert projections[i] == project_onto_circle(result.point, c)


def _write_pins(path, outputs):
    lines = [f"{json.dumps(name)}: {json.dumps(out)}" for name, out in outputs.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    # PYTHONPATH=src python3 tests/test_solver.py rewrites the pinned loop
    # and solve outputs from the current code
    with pytest.MonkeyPatch.context() as patch:
        _write_pins(SOLVER_POINTS, _loop_outputs(patch))
    _write_pins(SOLVE_POINTS, _solve_outputs())
