"""Evolution trace tests on the regular pentagon family."""

import json
import math
import sys
from functools import partial, reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from ftcircles import (
    Configuration,
    InvalidConfiguration,
    PreconditionViolated,
    SectorAngles,
    TerminationReason,
    WeightChange,
    compose_rays,
    evolve_type_a,
    evolve_type_b,
    plasticity_n,
    regular_polygon_config,
    solve,
)
from ftcircles.evolution import _default_schedule
from ftcircles.geometry import first_touching_pair
from ftcircles.scene import load_scene

from conftest import assert_close

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (the benchmark's seeded scene pools)

PINNED = Path(__file__).with_name("evolution_traces.json")
DEMO_PENTAGON = Path(__file__).resolve().parents[1] / "demos" / "scenes" / "pentagon.json"


@pytest.fixture(scope="module")
def pentagon():
    return regular_polygon_config(5, circumradius=2.0, radius=0.2)


class TestComposeRays:
    def test_opposite_collinear(self):
        m, _ = compose_rays(3.0, [1.0, 0.0], 2.0, [-1.0, 0.0])
        assert m == pytest.approx(1.0, abs=1e-15)

    def test_exact_cancellation(self):
        m, d = compose_rays(2.0, [1.0, 0.0], 2.0, [-1.0, 0.0])
        assert m == 0.0
        assert tuple(d) == (1.0, 0.0)

    def test_perpendicular_bisecting(self):
        m, d = compose_rays(1.0, [1.0, 0.0], 1.0, [0.0, 1.0])
        assert m == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert_close(d, [math.sqrt(0.5), math.sqrt(0.5)], 1e-15, "bisector")

    def test_huge_weights_do_not_cancel(self):
        # 1e-15 * (|w_a| + |w_b|) overflows to inf at these weights
        m, d = compose_rays(1e308, [1.0, 0.0], 1e308, [1.0, 0.0])
        assert m == math.inf and d == (1.0, 0.0)
        c, s = 0.5, math.sqrt(0.75)
        assert compose_rays(1e308, [c, s], 1e308, [c, -s]) == (1e308, (1.0, 0.0))

    def test_subnormal_weights_do_not_cancel(self):
        assert compose_rays(1e-310, [1.0, 0.0], 1e-310, [1.0, 0.0]) == (2e-310, (1.0, 0.0))


class TestTypeA:
    def test_zero_increments_fixed_point(self, pentagon):
        trace = evolve_type_a(pentagon, increments=[(0.0, 0.0)] * 4)
        assert trace.termination is TerminationReason.SCHEDULE_EXHAUSTED
        assert len(trace.steps) == 5
        for s in trace.steps:
            assert_close(s.weights, [1.0] * 5, 1e-15, "fixed point")
            assert all(p is WeightChange.UNCHANGED for p in s.pattern)

    def test_default_run_pattern(self, pentagon):
        trace = evolve_type_a(pentagon, steps=10)
        assert trace.termination is TerminationReason.SCHEDULE_EXHAUSTED
        assert len(trace.steps) == 11
        assert trace.pattern_violations == ()
        for s in trace.steps[1:]:
            assert s.pattern_string() == "-+-++"

    def test_constant_sum(self, pentagon):
        trace = evolve_type_a(pentagon, steps=10)
        total = sum(pentagon.weights)
        for s in trace.steps:
            assert abs(s.conserved_sum - total) < 1e-10

    def test_radii_track_weights(self, pentagon):
        trace = evolve_type_a(pentagon, steps=4)
        for s in trace.steps:
            assert_close(
                s.radii, [trace.scale * w for w in s.weights], 1e-14, "radius scaling"
            )

    def test_steps_remain_equilibria(self, pentagon):
        trace = evolve_type_a(pentagon, steps=6)
        for s in trace.steps[::3]:
            frame = Configuration(pentagon.circles, s.weights)
            result = solve(frame)
            assert result.point.distance_to(trace.point) < 1e-8
            angles = SectorAngles.from_result(result)
            w = np.array(s.weights)
            recovered = plasticity_n(
                angles, [w[3] / w[0], w[4] / w[0]], total=float(w.sum())
            )
            assert_close(recovered, w, 1e-6, f"step {s.step} self-consistency")

    def test_overlap_termination_matches_prediction(self, pentagon):
        # constant increments make the weights evolve linearly, so the first
        # touching step follows from the transfer rates in closed form
        delta, scale = 0.02, 1.0
        trace = evolve_type_a(pentagon, increments=[(delta, delta)] * 100, scale=scale)
        assert trace.termination is TerminationReason.OVERLAP

        from ftcircles import TriangleRatios, transfer_coefficients

        base = solve(pentagon)
        angles = SectorAngles.from_points(
            base.point, [c.center for c in pentagon.circles]
        )
        coeffs = transfer_coefficients(
            TriangleRatios.from_angles(angles), n=5, total=5.0
        )
        d = np.concatenate([coeffs.a @ [delta, delta], [delta, delta]])
        centers = pentagon.centers_array()
        w0 = pentagon.weights_array()
        predicted = None
        for k in range(1, 200):
            wk = w0 + k * d
            radii = scale * wk
            touched = any(
                np.linalg.norm(centers[i] - centers[j]) <= radii[i] + radii[j]
                for i in range(5)
                for j in range(i + 1, 5)
            ) or bool(np.any(wk <= 0.0))
            if touched:
                predicted = k
                break
        assert predicted is not None
        assert trace.steps[-1].step == predicted - 1

    def test_pattern_threshold_searched(self, pentagon):
        # find the largest constant per-step increment that completes a
        # 10-step run with a clean pattern; report it rather than pin it
        good = None
        for delta in np.geomspace(1e-3, 0.2, 24):
            trace = evolve_type_a(pentagon, increments=[(delta, delta)] * 10)
            if (
                trace.termination is TerminationReason.SCHEDULE_EXHAUSTED
                and trace.pattern_violations == ()
                and all(s.pattern_string() == "-+-++" for s in trace.steps[1:])
            ):
                good = delta
            else:
                break
        print(f"type A pattern holds for constant increments up to {good:.4g}")
        assert good is not None and good >= 0.01

    def test_shuffled_labels_rejected(self, pentagon):
        circles = list(pentagon.circles)
        circles[1], circles[3] = circles[3], circles[1]
        shuffled = Configuration(tuple(circles), pentagon.weights)
        with pytest.raises(PreconditionViolated):
            evolve_type_a(shuffled, steps=2)

    def test_wrong_count_rejected(self):
        square = regular_polygon_config(4, circumradius=2.0, radius=0.2)
        with pytest.raises(PreconditionViolated):
            evolve_type_a(square, steps=2)


class TestTypeB:
    def test_zero_schedule_fixed_point(self, pentagon):
        trace = evolve_type_b(pentagon, schedule=[0.0] * 4)
        assert len(trace.steps) == 5
        for s in trace.steps:
            assert_close(s.weights, [1.0] * 5, 1e-12, "fixed point")

    def test_default_run_pattern(self, pentagon):
        trace = evolve_type_b(pentagon, steps=10)
        assert trace.termination is TerminationReason.SCHEDULE_EXHAUSTED
        assert trace.pattern_violations == ()
        for s in trace.steps[1:]:
            # circles 0 and 2 shrink; 1, 3, 4 grow (3, 4 via the composite)
            assert s.pattern[0] is WeightChange.DECREASED
            assert s.pattern[2] is WeightChange.DECREASED
            assert s.pattern[1] in (WeightChange.INCREASED, WeightChange.UNCHANGED)
            assert s.pattern[3] is WeightChange.INCREASED
            assert s.pattern[4] is WeightChange.INCREASED

    def test_alternation(self, pentagon):
        trace = evolve_type_b(pentagon, steps=4)
        assert "composite" in trace.steps[1].active_branches
        assert "branch 1" in trace.steps[2].active_branches
        assert "composite" in trace.steps[3].active_branches

    def test_reduced_sum_conserved(self, pentagon):
        trace = evolve_type_b(pentagon, steps=10)
        base = trace.steps[0].conserved_sum
        for s in trace.steps:
            assert abs(s.conserved_sum - base) < 1e-10

    def test_composite_growth(self, pentagon):
        trace = evolve_type_b(pentagon, steps=8)
        composites = [s.composite_weight for s in trace.steps]
        assert all(b >= a for a, b in zip(composites, composites[1:]))

    def test_composite_change_below_threshold_is_a_deviation(self, pentagon):
        # step 2 grows ray 1 by 7e-12: weights 0 and 2 drop by more than
        # 1e-12 * total, but the composite rises by less, so it reads "="
        trace = evolve_type_b(pentagon, schedule=[0.0, 7e-12])
        m0, m2 = trace.steps[0].composite_weight, trace.steps[2].composite_weight
        assert 0.0 < m2 - m0 < 1e-12 * trace.steps[0].conserved_sum
        assert trace.steps[2].pattern_string() == "-+-=="
        assert trace.pattern_violations == (
            "step 2: pattern -+-== deviates from the expected quadrilateral response",
        )

    def test_steps_remain_equilibria(self, pentagon):
        trace = evolve_type_b(pentagon, steps=6)
        for s in trace.steps[1::2]:
            frame = Configuration(pentagon.circles, s.weights)
            result = solve(frame)
            assert result.point.distance_to(trace.point) < 1e-8

    def test_split_matches_a_linear_solve(self, monkeypatch):
        # the composite's split onto rays 3 and 4, by Cramer's rule, agrees
        # with LAPACK's solve of the same 2x2 system to 4 ulp
        import ftcircles.evolution as evolution

        factors = []
        evolve = evolution._evolve

        def recording(*args):
            factors.append(args[6])
            return evolve(*args)

        monkeypatch.setattr(evolution, "_evolve", recording)
        pentagons = [
            scene.configuration()
            for seed in (1, 2, 3)
            for scene in WORKLOADS["small-n"].make(seed)
            if scene.kind == "pentagon"
        ]
        assert len(pentagons) == 96
        for config in pentagons:
            evolve_type_b(config, steps=0)
            az = solve(config).ray_azimuths
            rays = np.array([np.cos(az[3:]), np.sin(az[3:])])
            _, u = compose_rays(config.weights[3], rays[:, 0], config.weights[4], rays[:, 1])
            reference = np.linalg.solve(rays, u).tolist()
            split = factors.pop()[3:]
            assert len(split) == 2 and min(split) > 0.0
            for s, ref in zip(split, reference):
                assert abs(s - ref) <= 4 * math.ulp(ref), (split, reference)


def trace_record(trace):
    """Every field of a trace as JSON data; JSON floats round-trip exactly."""
    return {
        "type": trace.type_tag.value,
        "termination": trace.termination.value,
        "scale": trace.scale,
        "point": [trace.point.x, trace.point.y],
        "pattern_violations": list(trace.pattern_violations),
        "steps": [
            {
                "step": s.step,
                "weights": [float(w) for w in s.weights],
                "radii": [float(r) for r in s.radii],
                "active_branches": s.active_branches,
                "pattern": s.pattern_string(),
                "conserved_sum": s.conserved_sum,
                "composite_weight": s.composite_weight,
            }
            for s in trace.steps
        ],
    }


def pinned_runs():
    """Name -> run of every trace pinned in evolution_traces.json."""
    regular = regular_polygon_config(5, circumradius=2.0, radius=0.2)
    demo, _ = load_scene(DEMO_PENTAGON)
    runs = {}
    for name, config in (("regular", regular), ("demo", demo)):
        for steps in (10, 60):
            runs[f"{name} A steps={steps}"] = partial(evolve_type_a, config, steps=steps)
            runs[f"{name} B steps={steps}"] = partial(evolve_type_b, config, steps=steps)
    runs["A overlap"] = partial(
        evolve_type_a, regular, increments=[(0.02, 0.02)] * 100, scale=1.0
    )
    runs["A nonpositive"] = partial(evolve_type_a, regular, increments=[(0.2, 0.2)] * 12)
    # changes below 1e-12 * total read as "=" and so as deviations
    runs["A tiny"] = partial(evolve_type_a, regular, increments=[(1e-13, 1e-13)] * 3)
    runs["B tiny"] = partial(evolve_type_b, regular, schedule=[1e-13] * 3)
    return runs


class TestPinnedTraces:
    """Traces equal, field by field with ==, those of the two-loop implementation."""

    @pytest.mark.parametrize("name", sorted(json.loads(PINNED.read_text())))
    def test_trace_matches_pinned(self, name):
        pinned = json.loads(PINNED.read_text())[name]
        assert trace_record(pinned_runs()[name]()) == pinned

    def test_pinned_cases(self):
        pinned = json.loads(PINNED.read_text())
        assert sorted(pinned) == sorted(pinned_runs())
        assert pinned["A overlap"]["termination"] == "overlap"
        assert pinned["A nonpositive"]["termination"] == "nonpositive_weight"
        assert pinned["A tiny"]["pattern_violations"][0] == (
            "step 1: pattern ===== deviates from -+-++"
        )
        assert pinned["B tiny"]["pattern_violations"][0] == (
            "step 1: pattern ===== deviates from the expected quadrilateral response"
        )


def test_default_schedule_adds_the_weights_in_order(pentagon):
    # in index order each 1e-16 rounds away; a compensated sum (math.fsum,
    # and sum on floats from Python 3.12 on) keeps them
    weights = (1.0, 1e-16, 1e-16, 1e-16, 1e-16)
    in_order = reduce(add, weights)
    assert math.fsum(weights) != in_order
    schedule = _default_schedule(Configuration(pentagon.circles, weights), 3)
    assert schedule == [0.01 * in_order * 0.9**k for k in range(3)]


@pytest.mark.parametrize("weight_scale", [1e-20, 1e-16, 1.0])
def test_type_b_patterns_do_not_depend_on_weight_scale(pentagon, weight_scale):
    scaled = Configuration(pentagon.circles, tuple(w * weight_scale for w in pentagon.weights))
    patterns = [s.pattern_string() for s in evolve_type_b(scaled, steps=10).steps]
    assert patterns == [s.pattern_string() for s in evolve_type_b(pentagon, steps=10).steps]


@pytest.mark.parametrize("evolve", [evolve_type_a, evolve_type_b])
def test_weights_without_a_finite_default_scale(pentagon, evolve):
    # 0.1 * 4 sin(pi/5) / 1e-320 overflows: no finite scale fits these weights
    tiny = Configuration(pentagon.circles, tuple(w * 1e-320 for w in pentagon.weights))
    with pytest.raises(PreconditionViolated, match=r"^weights up to 1e-320 give no finite"):
        evolve(tiny, steps=2)
    # a scale the caller passes gets the argument check
    message = r"^radius scale must be positive and finite, got inf$"
    with pytest.raises(InvalidConfiguration, match=message):
        evolve(tiny, scale=math.inf, steps=2)


def reference_overlap_step(config, steps, scale):
    """First step after step 0 whose scaled radii touch by ``first_touching_pair``, or None."""
    for s in steps[1:]:
        if first_touching_pair(config.xs, config.ys, [scale * w for w in s.weights]) is not None:
            return s.step
    return None


@pytest.mark.parametrize("evolve", [evolve_type_a, evolve_type_b])
@pytest.mark.parametrize("scene", ["regular", "demo"])
def test_overlap_stop_matches_first_touching_pair(pentagon, evolve, scene):
    # at each pair's exact touching scale for the weights of some step, and
    # 1 and 2 ulp either side, the trace stops where first_touching_pair does
    config = pentagon if scene == "regular" else load_scene(DEMO_PENTAGON)[0]
    free = evolve(config, steps=10, scale=1e-9).steps  # weights do not depend on the scale
    assert len(free) == 11
    (x, y), w = config.centers_array().T.tolist(), [s.weights for s in free]
    flips = outcomes = 0
    for i in range(5):
        for j in range(i + 1, 5):
            d = float(np.hypot(x[i] - x[j], y[i] - y[j]))
            for t in (0, 1, 5, 10):
                exact = d / (w[t][i] + w[t][j])
                below = math.nextafter(exact, 0.0)
                above = math.nextafter(exact, math.inf)
                scales = (math.nextafter(below, 0.0), below, exact, above, math.nextafter(above, math.inf))
                expected = [reference_overlap_step(config, free, scale) for scale in scales]
                flips += len(set(expected)) > 1
                for scale, k in zip(scales, expected):
                    trace = evolve(config, steps=10, scale=scale)
                    if k is None:
                        assert trace.termination is TerminationReason.SCHEDULE_EXHAUSTED
                        assert len(trace.steps) == 11
                    else:
                        assert trace.termination is TerminationReason.OVERLAP, (i, j, t, scale)
                        assert trace.steps[-1].step == k - 1, (i, j, t, scale)
                        outcomes += 1
    # some scale lies on a touching boundary, and some trace stops there
    assert flips > 0 and outcomes > 0


if __name__ == "__main__":
    # PYTHONPATH=src python3 tests/test_evolution.py rewrites the pinned
    # traces from the current code
    records = {name: trace_record(run()) for name, run in sorted(pinned_runs().items())}
    lines = [f"{json.dumps(name)}: {json.dumps(r)}" for name, r in records.items()]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
