"""Scene file loading and JSON serialization of solve results.

Scene schema::

    {"circles": [{"cx": .., "cy": .., "r": ..}, ...],
     "weights": [..],
     "mode": "curve" | "set",
     "tolerance": 1e-10,
     "point": [x, y]}          # optional, for inverse input

``mode`` defaults to "curve" and ``tolerance`` to 1e-10. Solve results are
serialized with the scene embedded, so a solve output is itself a valid
scene-with-point for the inverse command.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidConfiguration, SceneError
from .geometry import Circle, Configuration, DistanceMode, Point2
from .solver import SolveResult


def parse_scene(data: dict) -> tuple[Configuration, Point2 | None]:
    """Build a Configuration (and optional point) from a scene dict."""
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    if "scene" in data and isinstance(data["scene"], dict):
        # a serialized solve result: unwrap, prefer its solution point
        inner, _ = parse_scene(data["scene"])
        point = data.get("point")
        return inner, _parse_point(point) if point is not None else None

    raw_circles = data.get("circles")
    raw_weights = data.get("weights")
    if not isinstance(raw_circles, list) or not raw_circles:
        raise SceneError("scene needs a non-empty 'circles' list")
    if not isinstance(raw_weights, list):
        raise SceneError("scene needs a 'weights' list")
    if len(raw_weights) != len(raw_circles):
        raise SceneError(
            f"{len(raw_circles)} circles but {len(raw_weights)} weights"
        )
    circles = []
    for k, entry in enumerate(raw_circles):
        if not isinstance(entry, dict) or not {"cx", "cy", "r"} <= entry.keys():
            raise SceneError(f"circle {k} must have keys cx, cy, r")
        try:
            circles.append(
                Circle(Point2(float(entry["cx"]), float(entry["cy"])), float(entry["r"]))
            )
        except (TypeError, ValueError) as exc:
            raise SceneError(f"circle {k}: {exc}") from exc

    mode_name = data.get("mode", "curve")
    try:
        mode = DistanceMode(mode_name)
    except ValueError as exc:
        raise SceneError(f"mode must be 'curve' or 'set', got {mode_name!r}") from exc
    tolerance = data.get("tolerance", 1e-10)
    try:
        weights = tuple(float(w) for w in raw_weights)
        config = Configuration(tuple(circles), weights, float(tolerance), mode)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidConfiguration):
            raise
        raise SceneError(str(exc)) from exc

    point = data.get("point")
    return config, _parse_point(point) if point is not None else None


def _parse_point(raw) -> Point2:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise SceneError(f"point must be [x, y], got {raw!r}")
    return Point2(float(raw[0]), float(raw[1]))


def load_scene(path: str | Path) -> tuple[Configuration, Point2 | None]:
    """Read and parse a scene file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file {path} is not valid JSON: {exc}") from exc
    return parse_scene(data)


def scene_dict(config: Configuration) -> dict:
    """Scene dict for a configuration, with keys in schema order."""
    return {
        "circles": [
            {"cx": c.center.x, "cy": c.center.y, "r": c.radius} for c in config.circles
        ],
        "weights": list(config.weights),
        "mode": config.distance_mode.value,
        "tolerance": config.tolerance,
    }


def result_dict(config: Configuration, result: SolveResult) -> dict:
    """Full solve result as a JSON-ready dict with stable key order."""
    case = (
        "floating"
        if result.case.is_floating
        else {"absorbed_at": result.case.index}
    )
    return {
        "scene": scene_dict(config),
        "case": case,
        "point": [result.point.x, result.point.y],
        "projections": [list(xy) for xy in result.projection_xy],
        "distances": list(result.distances),
        "sector_order": list(result.sector_order),
        "sector_angles_rad": list(result.sector_angles),
        "objective": result.objective,
        "equilibrium_residual": result.equilibrium_residual,
        "iterations": result.iterations,
    }


def dump_json(data: dict) -> str:
    """Serialize preserving insertion order, so output bytes are stable."""
    return json.dumps(data, indent=2)
