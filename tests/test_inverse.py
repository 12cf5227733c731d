"""Inverse problem tests: angle formulas, weight recovery, round trips."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ftcircles import (
    AbsorbedWeights,
    AngleTriple,
    DegenerateAngle,
    InvalidConfiguration,
    angles_from_weights,
    opposite_angles,
    random_floating_config,
    solve,
    weights_from_angles,
)

from conftest import assert_close


class TestAnglesFromWeights:
    def test_equal_weights_isogonal(self):
        triple = angles_from_weights(1.0, 1.0, 1.0)
        assert_close(triple.angles, [2 * math.pi / 3] * 3, 1e-15, "isogonal")

    def test_345(self):
        triple = angles_from_weights(3.0, 4.0, 5.0)
        assert triple.phi1 == pytest.approx(math.acos(-0.8), abs=1e-15)
        assert triple.phi2 == pytest.approx(math.acos(-0.6), abs=1e-15)
        assert triple.phi3 == pytest.approx(math.pi / 2, abs=1e-15)
        assert sum(triple.angles) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_boundary_weights_absorbed(self):
        with pytest.raises(AbsorbedWeights):
            angles_from_weights(1.0, 1.0, 2.0)

    def test_dominant_weight_absorbed(self):
        with pytest.raises(AbsorbedWeights):
            angles_from_weights(5.0, 1.0, 1.0)

    @given(
        w1=st.floats(0.1, 5.0),
        w2=st.floats(0.1, 5.0),
        w3=st.floats(0.1, 5.0),
        lam=st.floats(0.01, 100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance(self, w1, w2, w3, lam):
        w = (w1, w2, w3)
        assume(all(w[i] < 0.98 * (w[(i + 1) % 3] + w[(i + 2) % 3]) for i in range(3)))
        a = angles_from_weights(*w)
        b = angles_from_weights(lam * w1, lam * w2, lam * w3)
        assert_close(a.angles, b.angles, 1e-9, "scale invariance")


class TestWeightsFromAngles:
    def test_symmetric(self):
        w = weights_from_angles(AngleTriple(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3))
        assert_close(w, [1 / 3] * 3, 1e-15, "symmetric weights")
        assert (w[0] + w[1] + w[2]) == 1.0

    def test_known_sine_ratios(self):
        # sines are (1, sqrt(2)/2, sqrt(2)/2); total 1 + sqrt(2)
        w = weights_from_angles(AngleTriple(math.pi / 2, 3 * math.pi / 4, 3 * math.pi / 4))
        root2 = math.sqrt(2.0)
        assert w[0] == pytest.approx(1.0 / (1.0 + root2), abs=1e-12)
        assert w[1] == pytest.approx(root2 / (2.0 + 2.0 * root2), abs=1e-12)
        assert w[2] == pytest.approx(root2 / (2.0 + 2.0 * root2), abs=1e-12)

    def test_345_roundtrip_ratios(self):
        w = weights_from_angles(angles_from_weights(3.0, 4.0, 5.0))
        assert_close(w, [3 / 12, 4 / 12, 5 / 12], 1e-12, "3:4:5 recovery")

    def test_sum_exactly_one(self):
        w = weights_from_angles(angles_from_weights(0.31, 0.57, 0.44))
        assert (w[0] + w[1] + w[2]) == 1.0

    def test_degenerate_angles(self):
        with pytest.raises((DegenerateAngle, InvalidConfiguration)):
            weights_from_angles(AngleTriple(math.pi - 1e-15, math.pi - 1e-15, 2e-15))

    @given(
        w1=st.floats(0.1, 2.0),
        w2=st.floats(0.1, 2.0),
        w3=st.floats(0.1, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, w1, w2, w3):
        w = (w1, w2, w3)
        assume(all(w[i] < 0.98 * (w[(i + 1) % 3] + w[(i + 2) % 3]) for i in range(3)))
        total = sum(w)
        recovered = weights_from_angles(angles_from_weights(*w))
        assert_close(recovered, [x / total for x in w], 1e-10, "round trip")


class TestAngleTripleValidation:
    def test_bad_sum(self):
        with pytest.raises(InvalidConfiguration):
            AngleTriple(1.0, 1.0, 1.0)

    def test_out_of_range(self):
        with pytest.raises(InvalidConfiguration):
            AngleTriple(math.pi + 0.2, math.pi - 0.1, math.pi - 0.1)


class TestEndToEnd:
    def test_solver_angles_recover_weights(self):
        for seed in (0, 1, 2, 3, 4):
            config = random_floating_config(3, seed=seed)
            result = solve(config)
            recovered = weights_from_angles(opposite_angles(result))
            total = sum(config.weights)
            assert_close(
                recovered,
                [w / total for w in config.weights],
                1e-7,
                f"seed {seed} recovery",
            )

    def test_opposite_angles_need_three_rays(self):
        result = solve(random_floating_config(4, seed=0))
        with pytest.raises(InvalidConfiguration, match="exactly 3 rays"):
            opposite_angles(result)
