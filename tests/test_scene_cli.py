"""Scene I/O, SVG determinism, and CLI behavior tests."""

import json
import math

import pytest

from ftcircles import (
    AngleTriple,
    Circle,
    Configuration,
    DistanceMode,
    Point2,
    SceneError,
    SectorAngles,
    cosine_system_weights,
    project_onto_circle,
    random_floating_config,
    solve,
    weights_from_angles,
)
from ftcircles.cli import CSV_HEADER, main, trace_csv
from ftcircles.evolution import evolve_type_a
from ftcircles.oracle import regular_polygon_config
from ftcircles.scene import dump_json, load_scene, parse_scene, result_dict, scene_dict
from ftcircles.svg import render_svg

EQ_SCENE = {
    "circles": [
        {"cx": 0.0, "cy": 0.5773502691896258, "r": 0.1},
        {"cx": -0.5, "cy": -0.2886751345948129, "r": 0.1},
        {"cx": 0.5, "cy": -0.2886751345948129, "r": 0.1},
    ],
    "weights": [1.0, 1.0, 1.0],
    "mode": "curve",
    "tolerance": 1e-10,
}


@pytest.fixture
def eq_scene_path(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(EQ_SCENE))
    return str(path)


def _absorbed_pentagon(tmp_path, mode=DistanceMode.TO_CURVE):
    """Scene file of a regular pentagon whose first weight absorbs the solution."""
    pentagon = regular_polygon_config(5, circumradius=2.0, radius=0.2)
    config = Configuration(pentagon.circles, (10.0, 1.0, 1.0, 1.0, 1.0), distance_mode=mode)
    path = tmp_path / f"absorbed_{mode.value}.json"
    path.write_text(dump_json(scene_dict(config)))
    return str(path)


@pytest.fixture
def pentagon_path(tmp_path):
    config = regular_polygon_config(5, circumradius=2.0, radius=0.2)
    path = tmp_path / "pentagon.json"
    path.write_text(dump_json(scene_dict(config)))
    return str(path)


class TestSceneParsing:
    def test_roundtrip(self, tmp_path):
        config, point = parse_scene(EQ_SCENE)
        assert config.n == 3
        assert point is None
        assert config.distance_mode is DistanceMode.TO_CURVE
        again, _ = parse_scene(scene_dict(config))
        assert again == config

    def test_point_field(self):
        data = dict(EQ_SCENE, point=[0.0, 0.1])
        _, point = parse_scene(data)
        assert (point.x, point.y) == (0.0, 0.1)

    def test_solve_output_is_a_scene(self):
        config, _ = parse_scene(EQ_SCENE)
        result = solve(config)
        doc = result_dict(config, result)
        again, point = parse_scene(doc)
        assert again == config
        assert point.distance_to(result.point) == 0.0

    @pytest.mark.parametrize(
        "mutation",
        [
            {"circles": []},
            {"weights": [1.0, 1.0]},
            {"mode": "banana"},
            {"circles": [{"cx": 0.0, "cy": 0.0}]},
            {"point": [1.0]},
            {"point": [1.0, "x"]},
            {"point": [1.0, None]},
            {"point": [math.inf, 0.0]},
        ],
    )
    def test_malformed_rejected(self, mutation):
        data = dict(EQ_SCENE)
        data.update(mutation)
        with pytest.raises(SceneError):
            parse_scene(data)

    def test_missing_file(self):
        with pytest.raises(SceneError):
            load_scene("/nonexistent/scene.json")


class TestSvg:
    def test_byte_deterministic(self):
        config, _ = parse_scene(EQ_SCENE)
        result = solve(config)
        assert render_svg(config, result) == render_svg(config, result)

    def test_element_order(self):
        config, _ = parse_scene(EQ_SCENE)
        result = solve(config)
        text = render_svg(config, result)
        first_circle = text.index("<circle")
        first_line = text.index("<line")
        first_path = text.index("<path")
        point_mark = text.rindex("<circle")
        assert first_circle < first_line < first_path < point_mark

    def test_angle_annotations_present(self):
        config, _ = parse_scene(EQ_SCENE)
        result = solve(config)
        text = render_svg(config, result)
        assert text.count("<text") == 3
        assert "120.00" in text


class TestCsv:
    def test_header_and_determinism(self):
        config = regular_polygon_config(5, circumradius=2.0, radius=0.2)
        a = trace_csv(evolve_type_a(config, steps=4))
        b = trace_csv(evolve_type_a(config, steps=4))
        assert a == b
        lines = a.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        assert lines[1].startswith("0,1,1,1,1,1,")
        assert lines[2].endswith(",-+-++")


class TestCli:
    def test_solve_reports_isogonal(self, eq_scene_path, capsys):
        assert main(["solve", eq_scene_path]) == 0
        out = capsys.readouterr().out
        assert "case=floating" in out
        assert "120.000000 120.000000 120.000000" in out

    def test_solve_json_then_inverse(self, eq_scene_path, tmp_path, capsys):
        assert main(["solve", eq_scene_path, "--json"]) == 0
        doc = capsys.readouterr().out
        solved = tmp_path / "solved.json"
        solved.write_text(doc)
        assert main(["inverse", str(solved)]) == 0
        out = capsys.readouterr().out
        assert "weights: 0.333333 0.333333 0.333333" in out

    def test_json_round_trip_recovers_weights(self, tmp_path, capsys):
        config = random_floating_config(3, seed=23)
        path = tmp_path / "scene.json"
        path.write_text(dump_json(scene_dict(config)))
        assert main(["solve", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        solved = tmp_path / "solved.json"
        solved.write_text(json.dumps(doc))
        assert main(["inverse", str(solved)]) == 0
        out = capsys.readouterr().out
        reported = [float(x) for x in out.split("weights:")[1].split()]
        total = sum(config.weights)
        for got, expected in zip(reported, config.weights):
            assert got == pytest.approx(expected / total, abs=1e-6)

    def test_mode_override(self, eq_scene_path, capsys):
        assert main(["solve", eq_scene_path, "--mode", "set"]) == 0
        assert "case=floating" in capsys.readouterr().out

    def test_svg_written_and_stable(self, eq_scene_path, tmp_path, capsys):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert main(["solve", eq_scene_path, "--svg", str(out1)]) == 0
        assert main(["solve", eq_scene_path, "--svg", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_check(self, eq_scene_path, tmp_path, capsys):
        assert main(["check", eq_scene_path]) == 0
        out = capsys.readouterr().out
        assert "case=floating" in out
        assert "sine system residual" in out
        # circles 0 and 1 on one ray from the point: floating and valid
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
        path = tmp_path / "collinear.json"
        path.write_text(dump_json(scene_dict(config)))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "case=floating" in out
        assert "sine system residual" in out

    def test_plasticity(self, pentagon_path, capsys):
        assert main(["plasticity", pentagon_path]) == 0
        out = capsys.readouterr().out
        assert "weights: 1 1 1 1 1" in out
        assert "sign pattern per free column: (-,+,-) (-,+,-)" in out

    def test_plasticity_free_ratios(self, pentagon_path, capsys):
        assert main(["plasticity", pentagon_path, "--free", "w4=1.0,w5=1.0"]) == 0
        assert "weights: 1 1 1 1 1" in capsys.readouterr().out

    def test_evolve_csv(self, pentagon_path, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        assert main(
            ["evolve", pentagon_path, "--type", "A", "--steps", "3", "--csv", str(csv_path)]
        ) == 0
        assert "termination=schedule_exhausted" in capsys.readouterr().out
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_evolve_frames(self, pentagon_path, tmp_path, capsys):
        frames = tmp_path / "frames"
        assert main(
            ["evolve", pentagon_path, "--type", "B", "--steps", "2",
             "--svg-frames", str(frames)]
        ) == 0
        capsys.readouterr()
        names = sorted(p.name for p in frames.iterdir())
        assert names == ["frame_000.svg", "frame_001.svg", "frame_002.svg"]

    def test_oracle(self, eq_scene_path, capsys):
        assert main(["oracle", eq_scene_path, "--grid", "150"]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("disagreement=")[1])
        assert gap < 1e-4

    def test_verify_geometric(self, eq_scene_path, capsys):
        assert main(["verify-geometric", eq_scene_path, "--shifts", "0.05,-0.02,0.1"]) == 0
        assert "invariant=holds" in capsys.readouterr().out

    def test_evolve_bad_scale(self, pentagon_path, capsys):
        assert main(["evolve", pentagon_path, "--type", "A", "--scale", "-1"]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_configuration:")

    def test_inverse_absorbed_scene(self, tmp_path, capsys):
        # the solution is the first center; no angle layout exists there
        assert main(["inverse", _absorbed_pentagon(tmp_path)]) == 1
        assert capsys.readouterr().out.startswith("ERROR:precondition_violated:")

    def test_inverse_non_numeric_point(self, tmp_path, capsys):
        path = tmp_path / "bad_point.json"
        path.write_text(json.dumps(dict(EQ_SCENE, point=[1.0, "x"])))
        assert main(["inverse", str(path)]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    def test_inverse_point_on_a_center(self, tmp_path, capsys):
        path = tmp_path / "on_center.json"
        path.write_text(json.dumps(dict(EQ_SCENE, point=[0.5, -0.2886751345948129])))
        assert main(["inverse", str(path)]) == 1
        assert capsys.readouterr().out == (
            "ERROR:degenerate_projection:projection of the center onto its circle is not unique\n"
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_inverse_with_point_uses_its_projections(self, tmp_path, capsys, n):
        config = random_floating_config(n, seed=5)
        solved = solve(config).point
        point = Point2(solved.x + 0.05, solved.y - 0.03)
        path = tmp_path / "scene.json"
        path.write_text(dump_json(dict(scene_dict(config), point=[point.x, point.y])))
        angles = SectorAngles.from_points(
            point, [project_onto_circle(point, c) for c in config.circles]
        )
        if n == 3:
            triple = AngleTriple.from_sectors(angles.cyclic_order(), angles.sectors())
            weights = weights_from_angles(triple)
        else:
            weights = cosine_system_weights(angles)
        assert main(["inverse", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "weights: " + " ".join(f"{w:.6f}" for w in weights)

    def test_oracle_absorbed_curve_scene(self, tmp_path, capsys):
        # the solver's point is the first center, which the curve-mode grid
        # never visits, so the two could not agree
        assert main(["oracle", _absorbed_pentagon(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("ERROR:precondition_violated:")
        assert "circle 0" in out and "curve-mode oracle excludes disk interiors" in out
        assert "oracle point" not in out

    def test_oracle_absorbed_set_scene(self, tmp_path, capsys):
        # set mode keeps disk interiors on the grid, so the oracle still runs
        assert main(["oracle", _absorbed_pentagon(tmp_path, DistanceMode.TO_SET)]) == 0
        assert "disagreement=" in capsys.readouterr().out

    @pytest.mark.parametrize("total", ["nan", "0", "-2"])
    def test_plasticity_bad_total(self, pentagon_path, total, capsys):
        assert main(["plasticity", pentagon_path, "--total", total]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    def test_plasticity_nonfinite_free(self, pentagon_path, capsys):
        assert main(["plasticity", pentagon_path, "--free", "w4=1.0,w5=nan"]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    @pytest.mark.parametrize(
        "free", ["w2=9,w4=0.5,w5=0.7", "w4=0.5,w5=0.7,w9=3", "w4=0.5,w4=0.6,w5=0.7"]
    )
    def test_plasticity_free_bad_label(self, pentagon_path, free, capsys):
        assert main(["plasticity", pentagon_path, "--free", free]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    @pytest.mark.parametrize("extra", [[], ["--free", "w4=1"]])
    def test_plasticity_three_circles(self, eq_scene_path, extra, capsys):
        assert main(["plasticity", eq_scene_path, *extra]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_configuration:")

    def test_verify_geometric_bad_tol(self, eq_scene_path, capsys):
        argv = ["verify-geometric", eq_scene_path, "--shifts", "0,0,0", "--tol", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_verify_geometric_nonfinite_shift(self, eq_scene_path, bad, capsys):
        assert main(["verify-geometric", eq_scene_path, "--shifts", f"0,{bad},0"]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    @pytest.mark.parametrize("shifts", ["0.1,0.2", "0,0,0,0"])
    def test_verify_geometric_shift_count(self, eq_scene_path, shifts, capsys):
        assert main(["verify-geometric", eq_scene_path, "--shifts", shifts]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    def test_oracle_bad_grid(self, eq_scene_path, capsys):
        assert main(["oracle", eq_scene_path, "--grid", "0"]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    def test_oracle_bad_refine(self, eq_scene_path, capsys):
        assert main(["oracle", eq_scene_path, "--refine", "-5"]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    def test_evolve_negative_steps(self, pentagon_path, capsys):
        assert main(["evolve", pentagon_path, "--type", "A", "--steps", "-5"]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    def test_evolve_zero_steps(self, pentagon_path, capsys):
        assert main(["evolve", pentagon_path, "--type", "B", "--steps", "0"]) == 0
        assert "steps=1 termination=schedule_exhausted" in capsys.readouterr().out

    def test_invalid_scene_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"circles": []}')
        assert main(["solve", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("ERROR:invalid_scene:")
        assert "\n" == out[-1] and out.count("\n") == 1

    def test_unreadable_scene(self, capsys):
        assert main(["solve", "/nonexistent.json"]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_scene:")

    def test_overlapping_scene_error(self, tmp_path, capsys):
        data = dict(EQ_SCENE)
        data["circles"] = [
            {"cx": 0.0, "cy": 0.0, "r": 1.0},
            {"cx": 1.0, "cy": 0.0, "r": 1.0},
            {"cx": 5.0, "cy": 5.0, "r": 1.0},
        ]
        bad = tmp_path / "overlap.json"
        bad.write_text(json.dumps(data))
        assert main(["solve", str(bad)]) == 1
        assert capsys.readouterr().out.startswith("ERROR:invalid_configuration:")

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        # an absurd tolerance cannot be met; exit code 2 distinguishes it
        data = {
            "circles": [
                {"cx": 0.0, "cy": 0.0, "r": 0.2},
                {"cx": 3.0, "cy": 0.2, "r": 0.2},
                {"cx": 1.2, "cy": 2.6, "r": 0.2},
            ],
            "weights": [0.9, 1.2, 1.0],
            "tolerance": 1e-300,
        }
        scene = tmp_path / "tight.json"
        scene.write_text(json.dumps(data))
        code = main(["solve", str(scene)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("ERROR:non_convergence:")

    def test_json_stable_key_order(self, eq_scene_path, capsys):
        assert main(["solve", eq_scene_path, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", eq_scene_path, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        keys = list(json.loads(first).keys())
        assert keys == [
            "scene",
            "case",
            "point",
            "projections",
            "distances",
            "sector_order",
            "sector_angles_rad",
            "objective",
            "equilibrium_residual",
            "iterations",
        ]
