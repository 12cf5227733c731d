"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; scene generation is seeded and
deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from ftcircles import (
    Circle,
    Configuration,
    Point2,
    SectorAngles,
    ShiftedConfigInvalid,
    TerminationReason,
    TriangleRatios,
    WeightChange,
    angles_from_weights,
    classify_case,
    cosine_residuals,
    cosine_system_weights,
    objective,
    opposite_angles,
    oracle_minimize,
    plasticity4_preconditions,
    plasticity_n,
    random_dominated_config,
    random_floating_config,
    regular_polygon_config,
    sine_residuals,
    solve,
    transfer_coefficients,
    verify_geometric_plasticity,
    weights_from_angles,
)

from conftest import directional_derivative_to_circle


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def _equal_weight_scenes(count: int):
    """Random 3-circle floating scenes with equal weights."""
    scenes = []
    for seed in itertools.count():
        base = random_floating_config(3, seed=seed)
        try:
            config = Configuration(base.circles, (1.0, 1.0, 1.0))
            if not classify_case(config).is_floating:
                continue
            solve(config)
        except Exception:
            continue
        scenes.append(config)
        if len(scenes) == count:
            return scenes


@pytest.fixture(scope="module")
def scenes3():
    return [random_floating_config(3, seed=s) for s in range(100)]


@pytest.fixture(scope="module")
def scenes4():
    return [random_floating_config(4, seed=s) for s in range(200)]


def test_criterion_01_isogonal_property():
    start = time.perf_counter()
    worst = 0.0
    for config in _equal_weight_scenes(25):
        result = solve(config)
        for angle in result.sector_angles:
            worst = max(worst, abs(angle - 2.0 * math.pi / 3.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 1.0
    _report(1, "isogonal-property", ok, f"max angle deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_angle_formula_certificate(scenes3):
    start = time.perf_counter()
    worst = 0.0
    for config in scenes3:
        result = solve(config)
        measured = opposite_angles(result)
        predicted = angles_from_weights(*config.weights)
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(measured.angles, predicted.angles)),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 5.0
    _report(2, "angle-formula-certificate", ok, f"max angle error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_inverse_round_trip(scenes3):
    worst = 0.0
    sums_exact = True
    for config in scenes3:
        result = solve(config)
        recovered = weights_from_angles(opposite_angles(result))
        total = sum(config.weights)
        worst = max(
            worst,
            max(abs(r - w / total) for r, w in zip(recovered, config.weights)),
        )
        if (recovered[0] + recovered[1] + recovered[2]) != 1.0:
            sums_exact = False
    ok = worst < 1e-7 and sums_exact
    _report(
        3,
        "inverse-round-trip",
        ok,
        f"max weight error {worst:.2e}, sums exactly 1: {sums_exact}",
    )


def test_criterion_04_cosine_sine_residuals(scenes4):
    worst = 0.0
    for config in scenes4[:100]:
        result = solve(config)
        angles = SectorAngles.from_result(result)
        w = config.weights_array()
        worst = max(worst, float(np.max(np.abs(cosine_residuals(angles.azimuths, w)))))
        worst = max(worst, float(np.max(np.abs(sine_residuals(angles.azimuths, w)))))
    ok = worst < 1e-7
    _report(4, "cosine-sine-residuals", ok, f"max residual {worst:.2e}")


def test_criterion_05_four_circle_plasticity(scenes4):
    worst_true = 0.0
    worst_family = 0.0
    worst_system = 0.0
    for config in scenes4[:100]:
        result = solve(config)
        angles = SectorAngles.from_result(result)
        w = config.weights_array()
        normalized = w / w.sum()
        out = plasticity_n(angles, [w[3] / w[0]], total=1.0)
        worst_true = max(worst_true, float(np.max(np.abs(out - normalized))))
        member = cosine_system_weights(angles)
        worst_system = max(
            worst_system, float(np.max(np.abs(cosine_residuals(angles.azimuths, member))))
        )
        again = plasticity_n(angles, [member[3] / member[0]], total=float(member.sum()))
        worst_family = max(worst_family, float(np.max(np.abs(again - member))))
    ok = worst_true < 1e-7 and worst_family < 1e-7 and worst_system < 1e-7
    _report(
        5,
        "four-circle-plasticity",
        ok,
        f"true-ratio recovery {worst_true:.2e}, family consistency "
        f"{worst_family:.2e}, cosine-system membership {worst_system:.2e}",
    )


def _projections_convex(result) -> bool:
    order = result.sector_order
    pts = [result.projections[i].as_array() for i in order]
    n = len(pts)
    for k in range(n):
        a, b, c = pts[k], pts[(k + 1) % n], pts[(k + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0.0:
            return False
    return True


def test_criterion_06_sign_pattern(scenes4):
    eligible = 0
    excluded = 0
    violations = 0
    for config in scenes4:
        result = solve(config)
        angles = SectorAngles.from_result(result)
        if not plasticity4_preconditions(angles) or not _projections_convex(result):
            excluded += 1
            continue
        eligible += 1
        coeffs = transfer_coefficients(TriangleRatios.from_angles(angles), n=4)
        a1, a2, a3 = coeffs.a[:, 0]
        if not (a1 < 0.0 and a2 > 0.0 and a3 < 0.0):
            violations += 1
    ok = eligible >= 5 and violations == 0
    _report(
        6,
        "sign-pattern",
        ok,
        f"{eligible} eligible scenes, {excluded} precondition-excluded, "
        f"{violations} sign violations",
    )


def test_criterion_07_general_n_plasticity():
    worst = 0.0
    for n in (5, 6):
        for seed in range(50):
            config = random_floating_config(n, seed=1000 * n + seed)
            result = solve(config)
            angles = SectorAngles.from_result(result)
            w = config.weights_array()
            out = plasticity_n(angles, list(w[3:] / w[0]), total=1.0)
            worst = max(worst, float(np.max(np.abs(out - w / w.sum()))))
    ok = worst < 1e-6
    _report(7, "general-n-plasticity", ok, f"max recovery error {worst:.2e}")


def test_criterion_08_geometric_plasticity():
    rng = np.random.default_rng(2024)
    radial_checked = 0
    radial_ok = 0
    for seed in range(10):
        config = random_floating_config(4, seed=500 + seed)
        done = 0
        attempts = 0
        while done < 5 and attempts < 100:
            attempts += 1
            shifts = rng.uniform(-0.05, 0.25, size=4)
            try:
                holds = verify_geometric_plasticity(config, shifts, point_tol=1e-7)
            except ShiftedConfigInvalid:
                continue
            done += 1
            radial_checked += 1
            radial_ok += int(holds)

    tangential_moved = 0
    for seed in range(5):
        config = random_floating_config(4, seed=700 + seed)
        base = solve(config)
        p = base.point.as_array()
        for magnitude in (0.3, 0.15, 0.08):
            circles = list(config.circles)
            c0 = circles[0]
            v = c0.center.as_array() - p
            v /= np.linalg.norm(v)
            perp = np.array([-v[1], v[0]])
            circles[0] = Circle(Point2.from_array(c0.center.as_array() + magnitude * perp), c0.radius)
            try:
                moved = solve(Configuration(tuple(circles), config.weights))
            except Exception:
                continue
            if moved.point.distance_to(base.point) > 1e-3:
                tangential_moved += 1
            break
    ok = radial_checked == 50 and radial_ok == 50 and tangential_moved >= 5
    _report(
        8,
        "geometric-plasticity",
        ok,
        f"{radial_ok}/{radial_checked} radial shifts invariant, "
        f"{tangential_moved}/5 tangential shifts moved the point",
    )


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    agreements = 0
    total = 500
    worst_gap = 0.0
    convexity_worst = -math.inf
    for k in range(total):
        n = (3, 4, 5, 6)[k % 4]
        config = random_floating_config(n, seed=3000 + k)
        solved = solve(config).point
        brute = oracle_minimize(config)
        gap = solved.distance_to(brute)
        worst_gap = max(worst_gap, gap)
        if gap < 1e-4:
            agreements += 1

        centers = config.centers_array()
        radii = config.radii_array()
        lo, hi = centers.min(axis=0), centers.max(axis=0)
        probes = 0
        while probes < 2:
            p, q = rng.uniform(lo, hi, (2, 2))
            if not _segment_clear(p, q, centers, radii):
                continue
            mid = 0.5 * (p + q)
            violation = objective(config, mid) - 0.5 * (
                objective(config, p) + objective(config, q)
            )
            convexity_worst = max(convexity_worst, float(violation))
            probes += 1
    elapsed = time.perf_counter() - start
    ok = agreements >= 495 and convexity_worst <= 1e-12 and elapsed < 120.0
    _report(
        9,
        "oracle-equivalence",
        ok,
        f"{agreements}/{total} within 1e-4 (worst gap {worst_gap:.2e}), "
        f"worst convexity violation {convexity_worst:.2e}, {elapsed:.1f}s",
    )


def _segment_clear(p, q, centers, radii, margin=0.02):
    for t in np.linspace(0.0, 1.0, 25):
        x = p + t * (q - p)
        if np.any(np.hypot(*(centers - x).T) < radii + margin):
            return False
    return True


def test_criterion_10_absorbed_case():
    ok_count = 0
    for seed in range(25):
        n = 3 + seed % 3
        dominant = seed % n
        config = random_dominated_config(n, seed=seed, dominant=dominant)
        tag = classify_case(config)
        if tag.is_floating or tag.index != dominant:
            continue
        brute = oracle_minimize(config)
        if brute.distance_to(config.circles[dominant].center) < 1e-3:
            ok_count += 1
    ok = ok_count == 25
    _report(10, "absorbed-case", ok, f"{ok_count}/25 scenes classified and confirmed")


def test_criterion_11_evolution_types():
    pentagon = regular_polygon_config(5, circumradius=2.0, radius=0.2)

    trace_a = evolve_and_check_a = None
    from ftcircles import evolve_type_a, evolve_type_b

    trace_a = evolve_type_a(pentagon, steps=10)
    a_pattern = (
        trace_a.termination is TerminationReason.SCHEDULE_EXHAUSTED
        and len(trace_a.steps) == 11
        and all(s.pattern_string() == "-+-++" for s in trace_a.steps[1:])
        and trace_a.pattern_violations == ()
    )
    a_drift = max(abs(s.conserved_sum - 5.0) for s in trace_a.steps)

    trace_b = evolve_type_b(pentagon, steps=10)
    b_pattern = (
        trace_b.termination is TerminationReason.SCHEDULE_EXHAUSTED
        and len(trace_b.steps) == 11
        and trace_b.pattern_violations == ()
    )
    for s in trace_b.steps[1:]:
        b_pattern = b_pattern and s.pattern[0] is WeightChange.DECREASED
        b_pattern = b_pattern and s.pattern[2] is WeightChange.DECREASED
        b_pattern = b_pattern and s.pattern[3] is WeightChange.INCREASED
        b_pattern = b_pattern and s.pattern[4] is WeightChange.INCREASED
        b_pattern = b_pattern and s.pattern[1] is not WeightChange.DECREASED
    b_base = trace_b.steps[0].conserved_sum
    b_drift = max(abs(s.conserved_sum - b_base) for s in trace_b.steps)

    worst_selfcheck = 0.0
    for trace in (trace_a, trace_b):
        for s in trace.steps:
            frame = Configuration(pentagon.circles, s.weights)
            result = solve(frame)
            angles = SectorAngles.from_result(result)
            w = np.array(s.weights)
            recovered = plasticity_n(
                angles, [w[3] / w[0], w[4] / w[0]], total=float(w.sum())
            )
            worst_selfcheck = max(worst_selfcheck, float(np.max(np.abs(recovered - w))))

    ok = (
        a_pattern
        and b_pattern
        and a_drift < 1e-10
        and b_drift < 1e-10
        and worst_selfcheck < 1e-6
    )
    _report(
        11,
        "evolution-types",
        ok,
        f"type A pattern {a_pattern} drift {a_drift:.1e}; type B pattern "
        f"{b_pattern} drift {b_drift:.1e}; self-consistency {worst_selfcheck:.2e}",
    )


def test_criterion_12_first_variation():
    rng = np.random.default_rng(5150)
    worst = 0.0
    checked = 0
    from conftest import angle_at, project_onto_circle

    while checked < 1000:
        center = Point2(*rng.uniform(-2, 2, 2))
        radius = float(rng.uniform(0.2, 1.5))
        circle = Circle(center, radius)
        p = Point2(*rng.uniform(-5, 5, 2))
        if p.distance_to(center) < radius + 0.05:
            continue
        ang = float(rng.uniform(0, 2 * math.pi))
        v = np.array([math.cos(ang), math.sin(ang)])
        derivative = directional_derivative_to_circle(circle, p, v)
        proj = project_onto_circle(p, circle)
        back = Point2(p.x - v[0], p.y - v[1])
        expected = math.cos(angle_at(p, back, proj))
        worst = max(worst, abs(derivative - expected))
        checked += 1
    ok = worst < 1e-5
    _report(12, "first-variation", ok, f"max identity error {worst:.2e} over 1000 triples")
