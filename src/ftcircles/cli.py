"""Command line front end.

Subcommands: solve, inverse, plasticity, check, evolve, oracle,
verify-geometric. Validation failures exit with code 1 and print a single
machine-parseable line ``ERROR:<code>:<detail>``; non-convergence exits
with code 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import FTCirclesError, NonConvergence, PreconditionViolated, SceneError
from .evolution import EvolutionTrace, evolve_type_a, evolve_type_b
from .geometry import Configuration, DistanceMode, azimuths_at, sine_matrix
from .inverse import AngleTriple, weights_from_angles
from .oracle import GRID_CELLS_DEFAULT, REFINE_ITERS_DEFAULT, oracle_minimize
from .plasticity import (
    SectorAngles,
    TriangleRatios,
    cosine_system_weights,
    plasticity_n,
    transfer_coefficients,
    verify_geometric_plasticity,
)
from .scene import dump_json, load_scene, result_dict
from .solver import _point_offsets, _projections, certificate_residuals, solve
from .svg import render_svg

CSV_HEADER = "step,w1,w2,w3,w4,w5,r1,r2,r3,r4,r5,pattern"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NonConvergence as exc:
        print(f"ERROR:{exc.code}:{exc}")
        return 2
    except FTCirclesError as exc:
        print(f"ERROR:{exc.code}:{exc}")
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftcircles",
        description="Weighted minimum-distance-sum problems for circles in the plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a scene and print the certificate")
    p.add_argument("scene")
    p.add_argument("--mode", choices=["curve", "set"], default=None)
    p.add_argument("--svg", metavar="PATH", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("inverse", help="recover normalized weights from a scene with a point")
    p.add_argument("scene")
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("plasticity", help="weight co-variation and transfer coefficients")
    p.add_argument("scene")
    p.add_argument("--free", default=None, metavar="w4=R[,w5=R...]",
                   help="free weight ratios relative to w1 (default: the scene's own)")
    p.add_argument("--total", type=float, default=None)
    p.set_defaults(handler=_cmd_plasticity)

    p = sub.add_parser("check", help="case classification and certificate residuals")
    p.add_argument("scene")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("evolve", help="run a five-circle evolution trace")
    p.add_argument("scene")
    p.add_argument("--type", dest="evo_type", choices=["A", "B"], required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--csv", metavar="PATH", default=None)
    p.add_argument("--svg-frames", metavar="DIR", default=None)
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("oracle", help="brute-force minimizer vs the solver")
    p.add_argument("scene")
    p.add_argument("--grid", type=int, default=GRID_CELLS_DEFAULT,
                   help="points per side of the coarse grid (default %(default)s)")
    p.add_argument("--refine", type=int, default=REFINE_ITERS_DEFAULT,
                   help="cap on the zoom rounds after the coarse grid (default %(default)s)")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify-geometric", help="radial shifts must keep the point fixed")
    p.add_argument("scene")
    p.add_argument("--shifts", required=True, help="comma-separated shift per circle")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(handler=_cmd_verify_geometric)
    return parser


def _cmd_solve(args) -> int:
    config, _ = load_scene(args.scene)
    if args.mode is not None:
        config = Configuration(
            config.circles, config.weights, config.tolerance, DistanceMode(args.mode)
        )
    result = solve(config)
    if args.svg:
        Path(args.svg).write_text(render_svg(config, result))
    if args.json:
        print(dump_json(result_dict(config, result)))
        return 0
    print(f"case={result.case}")
    print(f"point=({result.point.x:.12g}, {result.point.y:.12g})")
    print(f"objective={result.objective:.12g}")
    print(f"equilibrium_residual={result.equilibrium_residual:.3e}")
    for i, ((x, y), dist) in enumerate(zip(result.projection_xy, result.distances)):
        print(f"circle[{i}]: projection=({x:.12g}, {y:.12g}) distance={dist:.12g}")
    if result.sector_angles:
        degs = " ".join(f"{math.degrees(a):.6f}" for a in result.sector_angles)
        print(f"sector order: {' '.join(str(i) for i in result.sector_order)}")
        print(f"sector angles (deg): {degs}")
        residuals = certificate_residuals(result, config)
        print(f"max cosine residual: {max(abs(r) for r in residuals):.3e}")
    return 0


def _cmd_inverse(args) -> int:
    config, point = load_scene(args.scene)
    if point is None:
        angles = SectorAngles.from_result(solve(config))
    else:
        offsets, d = _point_offsets(config, point.as_array())
        angles = SectorAngles(azimuths_at(point, _projections(config, offsets, d)))
    if config.n == 3:
        triple = AngleTriple.from_sectors(angles.cyclic_order(), angles.sectors())
        weights = weights_from_angles(triple)
    else:
        weights = cosine_system_weights(angles)
        print(f"note: n={config.n} leaves {config.n - 3} free parameters; "
              f"printing the minimum-norm member")
    print("weights: " + " ".join(f"{w:.6f}" for w in weights))
    return 0


def _positive(value: float, option: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise SceneError(f"{option} must be finite and > 0, got {value}")


def _cmd_plasticity(args) -> int:
    if args.total is not None:
        _positive(args.total, "--total")
    config, _ = load_scene(args.scene)
    result = solve(config)
    angles = SectorAngles.from_result(result)
    n = config.n
    w = config.weights_array()
    total = args.total if args.total is not None else float(w.sum())
    # before --free, so that n < 4 stays invalid_configuration
    coeffs = transfer_coefficients(TriangleRatios.from_angles(angles), n=n, total=total)
    if args.free:
        free = _parse_free(args.free, n)
    else:
        free = [w[j] / w[0] for j in range(3, n)]
    weights = plasticity_n(angles, free, total=total)
    print("weights: " + " ".join(f"{x:.12g}" for x in weights))
    for i in range(3):
        row = " ".join(f"{coeffs.a[i, k]:+.12g}" for k in range(n - 3))
        print(f"a[{i + 1}]: {row}  const={coeffs.const[i]:+.12g}")
    signs = []
    for k in range(n - 3):
        signs.append(
            "(" + ",".join(("+" if coeffs.a[i, k] > 0 else "-") for i in range(3)) + ")"
        )
    print("sign pattern per free column: " + " ".join(signs))
    return 0


def _parse_free(expr: str, n: int) -> list[float]:
    values = {}
    for part in expr.split(","):
        if "=" not in part:
            raise SceneError(f"bad --free entry {part!r}, expected wK=value")
        key, val = part.split("=", 1)
        key = key.strip().lower()
        if not key.startswith("w"):
            raise SceneError(f"bad --free key {key!r}")
        try:
            label = int(key[1:])
            value = float(val)
        except ValueError as exc:
            raise SceneError(f"bad --free entry {part!r}: {exc}") from exc
        if not 4 <= label <= n:
            raise SceneError(f"bad --free key {key!r}: the free weights are w4..w{n}")
        if label in values:
            raise SceneError(f"--free repeats w{label}")
        if not math.isfinite(value):
            raise SceneError(f"bad --free entry {part!r}: not finite")
        values[label] = value
    free = []
    for label in range(4, n + 1):
        if label not in values:
            raise SceneError(f"--free is missing w{label}")
        free.append(values[label])
    return free


def _cmd_check(args) -> int:
    config, _ = load_scene(args.scene)
    result = solve(config)
    print(f"case={result.case}")
    if not result.case.is_floating:
        print(f"point=({result.point.x:.12g}, {result.point.y:.12g})")
        print(f"objective={result.objective:.12g}")
        return 0
    residuals = certificate_residuals(result, config)
    sin_res = sine_matrix(result.ray_azimuths) @ config.weights_array()
    print(f"equilibrium_residual={result.equilibrium_residual:.3e}")
    print(f"max cosine residual: {max(abs(r) for r in residuals):.3e}")
    print(f"max sine system residual: {np.max(np.abs(sin_res)):.3e}")
    return 0


def _cmd_evolve(args) -> int:
    if args.steps < 0:
        raise SceneError(f"--steps must be >= 0, got {args.steps}")
    config, _ = load_scene(args.scene)
    if args.evo_type == "A":
        trace = evolve_type_a(config, scale=args.scale, steps=args.steps)
    else:
        trace = evolve_type_b(config, scale=args.scale, steps=args.steps)
    print(f"type={trace.type_tag.value} steps={len(trace.steps)} "
          f"termination={trace.termination.value}")
    print(f"point=({trace.point.x:.12g}, {trace.point.y:.12g}) scale={trace.scale:.12g}")
    for violation in trace.pattern_violations:
        print(f"pattern violation: {violation}")
    if args.csv:
        Path(args.csv).write_text(trace_csv(trace))
    if args.svg_frames:
        _write_frames(trace, Path(args.svg_frames))
    return 0


def trace_csv(trace: EvolutionTrace) -> str:
    rows = [CSV_HEADER]
    for s in trace.steps:
        cells = [str(s.step)]
        cells += [f"{w:.12g}" for w in s.weights]
        cells += [f"{r:.12g}" for r in s.radii]
        cells.append(s.pattern_string())
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _write_frames(trace: EvolutionTrace, directory: Path) -> None:
    from .geometry import Circle

    directory.mkdir(parents=True, exist_ok=True)
    for s in trace.steps:
        circles = tuple(
            Circle(c.center, r) for c, r in zip(trace.config.circles, s.radii)
        )
        frame = Configuration(
            circles, s.weights, trace.config.tolerance, trace.config.distance_mode
        )
        result = solve(frame)
        (directory / f"frame_{s.step:03d}.svg").write_text(render_svg(frame, result))


def _cmd_oracle(args) -> int:
    if args.grid < 1 or args.refine < 0:
        raise SceneError(f"need --grid >= 1 and --refine >= 0, got {args.grid}, {args.refine}")
    config, _ = load_scene(args.scene)
    result = solve(config)
    if not result.case.is_floating and config.distance_mode is DistanceMode.TO_CURVE:
        raise PreconditionViolated(
            f"the solution is absorbed at the center of circle {result.case.index}, inside its "
            "disk, and the curve-mode oracle excludes disk interiors"
        )
    brute = oracle_minimize(config, grid_cells=args.grid, refine_iters=args.refine)
    gap = result.point.distance_to(brute)
    print(f"solver point=({result.point.x:.12g}, {result.point.y:.12g})")
    print(f"oracle point=({brute.x:.12g}, {brute.y:.12g})")
    print(f"disagreement={gap:.3e}")
    return 0


def _cmd_verify_geometric(args) -> int:
    _positive(args.tol, "--tol")
    config, _ = load_scene(args.scene)
    try:
        shifts = [float(s) for s in args.shifts.split(",")]
    except ValueError as exc:
        raise SceneError(f"bad --shifts value: {exc}") from exc
    if not all(math.isfinite(s) for s in shifts):
        raise SceneError(f"bad --shifts value {args.shifts!r}: not finite")
    if len(shifts) != config.n:
        raise SceneError(f"--shifts needs {config.n} values, one per circle, got {len(shifts)}")
    ok = verify_geometric_plasticity(config, shifts, point_tol=args.tol)
    print(f"invariant={'holds' if ok else 'violated'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
