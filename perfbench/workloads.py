"""The benchmark's workloads: seeded input generators, item pipelines, checks.

Every workload builds a pool of scenes from ``--seed`` (input generation is
part of set-up), then the timed loop walks the pool in order. Each pass after
the first translates every scene by a fresh seeded offset, so no two items
share a configuration and a result cache cannot hit across items; only
``small-n`` solves one configuration several times within an item.

Generators decide whether a scene is valid from geometry alone (pulls at the
centers, a Lipschitz bound that keeps the minimizer out of every disk),
never from what the solver does with the scene. Checks use the acceptance
suite's tolerances and this file's own numpy code.

Library functions are always looked up on the ``ftcircles`` package at call
time, so a traced run sees the rebound (wrapped) functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import ftcircles as ft
import ftcircles.cli

TOL_RESULTANT = 1e-7     # ||sum w_i u(P, A_i)|| <= TOL_RESULTANT * sum(w)
TOL_CERTIFICATE = 1e-7   # certificate residuals
TOL_INVERSE = 1e-7       # n = 3 inverse round trip
TOL_PLASTICITY = 1e-6    # plasticity / transfer recovery
TOL_DRIFT = 1e-10        # evolution conserved-sum drift
TOL_ORACLE = 1e-4        # solver vs oracle point gap

OUT_DIR = Path(".bench_out")


class CheckFailed(Exception):
    """An item returned an output that fails its correctness check."""


@dataclasses.dataclass(frozen=True)
class Scene:
    """Raw scene arrays; items build the ``Configuration`` themselves."""

    kind: str
    centers: np.ndarray
    radii: np.ndarray
    weights: np.ndarray
    dominant: int | None = None        # expected absorbing index
    shifts: np.ndarray | None = None   # radial shifts for geometric plasticity
    eps: float | None = None           # near-boundary margin

    @property
    def n(self) -> int:
        return len(self.weights)

    def moved(self, offset) -> "Scene":
        return dataclasses.replace(self, centers=self.centers + np.asarray(offset, dtype=float))

    def configuration(self):
        circles = tuple(
            ft.Circle(ft.Point2(float(x), float(y)), float(r))
            for (x, y), r in zip(self.centers, self.radii)
        )
        return ft.Configuration(circles, tuple(float(w) for w in self.weights))


def _from_config(kind: str, config, **extra) -> Scene:
    return Scene(kind, config.centers_array(), config.radii_array(), config.weights_array(), **extra)


def _seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


# -- geometry shared by generators and checks ----------------------------

def pulls(centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Norm of ``sum_{j!=i} w_j u(A_i, A_j)`` at every center."""
    diff = centers[None, :, :] - centers[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, 1.0)
    unit = diff / dist[..., None]
    return np.linalg.norm((weights[None, :, None] * unit).sum(axis=1), axis=1)


def resultant(point: np.ndarray, centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_i w_i u(P, A_i)``; zero exactly at a floating minimizer."""
    diff = centers - point
    return (weights[:, None] * diff / np.hypot(diff[:, 0], diff[:, 1])[:, None]).sum(axis=0)


def disk_clearance(centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Largest radius per circle that provably keeps a floating minimizer out.

    Inside disk j the gradient of the other terms differs from its value at
    A_j by at most ``r * L_j`` with ``L_j = sum_k w_k / (|A_j - A_k| / 2)``
    (valid while r stays below half of every center distance), while at the
    minimizer it must have norm w_j. So the minimizer stays out of disk j
    when ``r_j < (pull_j - w_j) / L_j``. Returns half of that bound.
    """
    diff = centers[None, :, :] - centers[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(dist, np.inf)
    lipschitz = 2.0 * (weights[None, :] / dist).sum(axis=1)
    return 0.5 * (pulls(centers, weights) - weights) / lipschitz


def _floating_and_clear(centers, radii, weights) -> bool:
    return bool(np.all(pulls(centers, weights) > weights)
                and np.all(radii < disk_clearance(centers, weights)))


# -- generators ---------------------------------------------------------

def floating_scene(n: int, rng) -> Scene:
    return _from_config("floating", ft.random_floating_config(n, seed=_seed(rng)))


def absorbed_scene(n: int, rng) -> Scene:
    dominant = int(rng.integers(n))
    config = ft.random_dominated_config(n, seed=_seed(rng), dominant=dominant)
    return _from_config("absorbed", config, dominant=dominant)


def pentagon_scene(rng) -> Scene:
    """Regular pentagon (circumradius 2, radius 0.2) with jittered centers and weights."""
    angles = math.pi / 2.0 + 2.0 * math.pi * np.arange(5) / 5.0
    base = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    while True:
        centers = base + rng.uniform(-0.1, 0.1, size=(5, 2))
        weights = rng.uniform(0.9, 1.1, size=5)
        radii = np.full(5, 0.2)
        if _floating_and_clear(centers, radii, weights):
            return Scene("pentagon", centers, radii, weights, shifts=rng.uniform(0.0, 0.2, size=5))


def annulus_scene(n: int, rng, absorbed: bool) -> Scene:
    """n centers on a unit lattice filling an annulus, jittered by up to 0.2.

    Radii are at most 0.25, so jittered neighbours (at least 0.6 apart) never
    touch. Weights are U(0.5, 1.5); an absorbed scene raises one weight above
    the sum of all others.
    """
    r_out = math.sqrt(1.3 * n / (0.75 * math.pi))
    r_in = 0.5 * r_out
    k = int(math.ceil(r_out))
    gx, gy = np.meshgrid(np.arange(-k, k + 1.0), np.arange(-k, k + 1.0))
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    ring = np.hypot(lattice[:, 0], lattice[:, 1])
    lattice = lattice[(ring >= r_in) & (ring <= r_out)]
    while True:
        centers = lattice[rng.choice(len(lattice), size=n, replace=False)]
        centers = centers + rng.uniform(-0.2, 0.2, size=(n, 2))
        radii = rng.uniform(0.05, 0.25, size=n)
        weights = rng.uniform(0.5, 1.5, size=n)
        if absorbed:
            m = int(rng.integers(n))
            weights[m] = weights.sum() - weights[m] + rng.uniform(0.5, 1.5)
            return Scene("absorbed", centers, radii, weights, dominant=m)
        if _floating_and_clear(centers, radii, weights):
            return Scene("floating", centers, radii, weights)


def near_boundary_scene(n: int, eps: float, rng) -> Scene:
    """A floating scene whose tightest center has weight (1 - eps) * pull.

    Radii are shrunk to the provable clearance, which for the tight circle
    is of order eps, so the minimizer stays outside every disk.
    """
    while True:
        base = _from_config("near-boundary", ft.random_floating_config(n, seed=_seed(rng)), eps=eps)
        weights = base.weights.copy()
        pull = pulls(base.centers, weights)
        tight = int(np.argmin(pull / weights))
        weights[tight] = (1.0 - eps) * pull[tight]
        if not np.all(pulls(base.centers, weights) > weights):
            continue
        radii = np.minimum(base.radii, disk_clearance(base.centers, weights))
        return dataclasses.replace(base, radii=radii, weights=weights)


# -- checks -------------------------------------------------------------

def _point(result) -> np.ndarray:
    return np.array([result.point.x, result.point.y])


def check_floating(scene: Scene, result) -> None:
    if not result.case.is_floating:
        raise CheckFailed(f"expected a floating solution, got {result.case}")
    g = float(np.linalg.norm(resultant(_point(result), scene.centers, scene.weights)))
    if not g <= TOL_RESULTANT * scene.weights.sum():
        raise CheckFailed(f"resultant {g:.3e} at the floating point")


def check_absorbed(scene: Scene, result) -> None:
    m = result.case.index
    if result.case.is_floating or m != scene.dominant:
        raise CheckFailed(f"expected absorption at {scene.dominant}, got {result.case}")
    if not np.array_equal(_point(result), scene.centers[m]):
        raise CheckFailed("absorbed point is not the absorbing center")
    rest = np.arange(scene.n) != m
    pull = float(np.linalg.norm(resultant(scene.centers[m], scene.centers[rest], scene.weights[rest])))
    if not pull <= scene.weights[m]:
        raise CheckFailed(f"pull {pull:.6g} exceeds weight {scene.weights[m]:.6g} at the absorbing center")


def _check_max(label: str, values, tol: float) -> None:
    worst = float(np.max(np.abs(values)))
    if not worst <= tol:
        raise CheckFailed(f"{label} {worst:.3e} > {tol:.0e}")


# -- workloads ----------------------------------------------------------

class Workload:
    """A pool generator, an item pipeline and its check.

    ``trace_items`` is the fixed item prefix a traced run covers, so the
    per-layer counts of one seed repeat exactly.
    """

    name = ""
    trace_items = 0
    warmup_count = 8
    allowed_check_failures = 0.0   # share of items; beyond it the run is not correct
    allowed_errors: tuple[str, ...] = ()   # exception types an item may raise in a correct run

    def make(self, seed: int) -> list[Scene]:
        raise NotImplementedError

    def warmup(self, pool: list[Scene], seed: int) -> list[Scene]:
        """Translated copies of the first pool items, so no timed item repeats them."""
        offset = np.random.default_rng([seed, 2]).uniform(-3.0, 3.0, size=2)
        return [s.moved(offset) for s in pool[:self.warmup_count]]

    def sequence(self, pool: list[Scene], seed: int):
        """Endless item stream: the pool in order, re-translated on every pass."""
        rng = np.random.default_rng([seed, 1])
        yield from pool
        while True:
            offset = rng.uniform(-3.0, 3.0, size=2)
            for scene in pool:
                yield scene.moved(offset)

    def run(self, scene: Scene):
        raise NotImplementedError

    def run_in_process(self, item):
        """The item as a traced run executes it (the CLI overrides this)."""
        return self.run(item)

    def check(self, scene: Scene, out) -> None:
        raise NotImplementedError


class SmallN(Workload):
    """n = 3..6 through solve, certificate, inverse or plasticity; pentagons also evolve.

    A block of 8 items holds floating n = 3, 4, 5, 6, 3, 4 from
    ``random_floating_config``, one jittered regular pentagon and one
    absorbed scene from ``random_dominated_config`` (n cycling 3..6).
    """

    name = "small-n"
    trace_items = 400
    # Some scenes converge slowly (18-24 iterations instead of 16, about 10x
    # the time) under some translations; 256 scenes keep their share of the
    # items from depending on a few scenes, and each still runs about 30
    # times in a run.
    blocks = 32

    def make(self, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for b in range(self.blocks):
            pool += [floating_scene(n, rng) for n in (3, 4, 5, 6, 3, 4)]
            pool.append(pentagon_scene(rng))
            pool.append(absorbed_scene(3 + b % 4, rng))
        return pool

    def run(self, scene):
        config = scene.configuration()
        result = ft.solve(config)
        out = {"result": result}
        if scene.kind == "absorbed":
            return out
        out["residuals"] = ft.certificate_residuals(result, config)
        if scene.n == 3:
            out["inverse"] = ft.weights_from_angles(ft.opposite_angles(result))
            return out
        w = scene.weights
        angles = ft.SectorAngles.from_result(result)
        out["plasticity"] = ft.plasticity_n(angles, list(w[3:] / w[0]), total=1.0)
        out["transfer"] = ft.transfer_coefficients(
            ft.TriangleRatios.from_angles(angles), n=scene.n, total=float(w.sum())
        )
        if scene.kind == "pentagon":
            out["evolve_a"] = ft.evolve_type_a(config, steps=10)
            out["evolve_b"] = ft.evolve_type_b(config, steps=10)
            out["geometric"] = ft.verify_geometric_plasticity(config, scene.shifts)
        return out

    def check(self, scene, out):
        result = out["result"]
        if scene.kind == "absorbed":
            check_absorbed(scene, result)
            return
        check_floating(scene, result)
        _check_max("certificate residual", out["residuals"], TOL_CERTIFICATE)
        w = scene.weights
        normalized = w / w.sum()
        if scene.n == 3:
            _check_max("inverse error", np.subtract(out["inverse"], normalized), TOL_INVERSE)
            return
        _check_max("plasticity recovery", out["plasticity"] - normalized, TOL_PLASTICITY)
        coeffs = out["transfer"]
        predicted = coeffs.a @ w[3:] + coeffs.const
        _check_max("transfer recovery", (predicted - w[:3]) / w.sum(), TOL_PLASTICITY)
        if scene.kind != "pentagon":
            return
        for trace in (out["evolve_a"], out["evolve_b"]):
            base = trace.steps[0].conserved_sum
            _check_max("evolution drift", [s.conserved_sum - base for s in trace.steps], TOL_DRIFT)
        _check_max("type A total", [out["evolve_a"].steps[0].conserved_sum - w.sum()], TOL_DRIFT)
        if out["geometric"] is not True:
            raise CheckFailed("radial shifts moved the solution point")


class LargeN(Workload):
    """n = 50 and 200 on an annulus lattice through solve and the certificate.

    A block of 8 items holds five floating n = 50 scenes, two floating
    n = 200 scenes and one absorbed n = 200 scene. The pool is one block,
    so a run repeats every scene about ten times; n = 200 solve costs vary
    little between scenes, so one block stands for the seed. With 8
    scenes, item_ms_tail is the slowest one.
    """

    name = "large-n"
    trace_items = 8
    blocks = 1

    def make(self, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.blocks):
            for n in (200, 50, 50, 50, 200, 50, 50):
                pool.append(annulus_scene(n, rng, absorbed=False))
            pool.append(annulus_scene(200, rng, absorbed=True))
        return pool

    def warmup(self, pool, seed):
        return [s for s in super().warmup(pool, seed) if s.n == 50][:1]

    def run(self, scene):
        config = scene.configuration()
        result = ft.solve(config)
        if scene.kind == "absorbed":
            return {"result": result}
        return {"result": result, "residuals": ft.certificate_residuals(result, config)}

    def check(self, scene, out):
        if scene.kind == "absorbed":
            check_absorbed(scene, out["result"])
            return
        check_floating(scene, out["result"])
        _check_max("certificate residual", out["residuals"], TOL_CERTIFICATE)


class OracleSweep(Workload):
    """Acceptance criterion 09: solve and the brute-force oracle agree within 1e-4."""

    name = "oracle-sweep"
    trace_items = 48
    warmup_count = 2
    # 32 scenes: a run repeats each about fifteen times
    blocks = 8
    # criterion 09 passes with up to 1% of scenes over the gap
    allowed_check_failures = 0.01

    def make(self, seed):
        rng = np.random.default_rng(seed)
        return [floating_scene(n, rng) for _ in range(self.blocks) for n in (3, 4, 5, 6)]

    def run(self, scene):
        config = scene.configuration()
        return {"result": ft.solve(config), "oracle": ft.oracle_minimize(config)}

    def check(self, scene, out):
        check_floating(scene, out["result"])
        p = out["result"].point
        q = out["oracle"]
        gap = math.hypot(p.x - q.x, p.y - q.y)
        if not gap <= TOL_ORACLE:
            raise CheckFailed(f"oracle gap {gap:.3e}")


class NearBoundary(Workload):
    """Floating scenes a relative margin eps from absorption, eps log-uniform on [1e-8, 1e-2].

    A block of 12 items takes one eps from each of 12 equal log-width strata
    (in shuffled order) and cycles n over 3..6. It is not listed in
    ``BENCHMARK.json``: at eps below about 1e-7 the solver spends its whole
    iteration budget (2-4 s) and raises NonConvergence, so a run holds only a
    handful of such items and its throughput swings several-fold between
    seeds. Run it by name to see those failures.
    """

    name = "near-boundary"
    trace_items = 24
    blocks = 8
    strata = 12
    # the seed's NonConvergence items are what this workload shows
    allowed_errors = ("NonConvergence",)

    def make(self, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.blocks):
            exponents = -8.0 + 6.0 * (np.arange(self.strata) + rng.uniform(size=self.strata)) / self.strata
            for k, e in enumerate(rng.permutation(exponents)):
                pool.append(near_boundary_scene(3 + k % 4, float(10.0**e), rng))
        return pool

    def warmup(self, pool, seed):
        # only items far from the boundary: a warm-up must not burn seconds
        fast = [s for s in pool if s.eps >= 1e-4][:2]
        offset = np.random.default_rng([seed, 2]).uniform(-3.0, 3.0, size=2)
        return [s.moved(offset) for s in fast]

    def run(self, scene):
        return {"result": ft.solve(scene.configuration())}

    def check(self, scene, out):
        check_floating(scene, out["result"])


# -- CLI ----------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Call:
    """One CLI invocation with what an in-process run says it must print."""

    argv: tuple[str, ...]
    expect: dict
    files: tuple[tuple[str, str], ...] = ()   # (path, expected exact content)

    def moved(self, offset) -> "Call":
        """Scene files are fixed, so a call is the same under any translation."""
        return self


def _scene_file(path: Path, scene: Scene) -> Path:
    data = {
        "circles": [{"cx": float(x), "cy": float(y), "r": float(r)}
                    for (x, y), r in zip(scene.centers, scene.radii)],
        "weights": [float(w) for w in scene.weights],
    }
    path.write_text(json.dumps(data, indent=2))
    return path


def _numbers(line: str) -> list[float]:
    """Numbers after the first ':' or '=' of an output line."""
    cut = min(i for i in (line.find(":"), line.find("="), len(line)) if i >= 0)
    return [float(t) for t in line[cut + 1:].replace("(", " ").replace(")", " ").replace(",", " ").split()]


def _remove_outputs(call: Call) -> None:
    """So a call that stops writing its file cannot pass on an earlier pass's file."""
    for path, _ in call.files:
        Path(path).unlink(missing_ok=True)


def _line(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line
    raise CheckFailed(f"no line starting with {prefix!r}")


class Cli(Workload):
    """One ``python -m ftcircles.cli`` subprocess per item, cycling command/scene pairs.

    It is not listed in ``BENCHMARK.json``: a call is mostly process start
    and importing numpy and scipy, and on a shared host that cost drifts by
    a quarter to a third between sets of runs minutes apart, more than any
    bound allows. Run it by name; its ``--trace 1`` run is the one that
    covers the ``scene``, ``svg`` and ``cli`` layers.
    """

    name = "cli"
    scene_dir = OUT_DIR / "cli"
    warmup_count = 1

    def make(self, seed):
        rng = np.random.default_rng(seed)
        self.scene_dir.mkdir(parents=True, exist_ok=True)
        paths = sorted(Path("demos/scenes").glob("*.json"))
        paths += [
            _scene_file(self.scene_dir / "floating3.json", floating_scene(3, rng)),
            _scene_file(self.scene_dir / "floating6.json", floating_scene(6, rng)),
            _scene_file(self.scene_dir / "pentagon.json", pentagon_scene(rng)),
        ]
        calls = []
        for k, path in enumerate(paths):
            calls += self._calls(str(path), self.scene_dir / f"out{k}")
        self.trace_items = len(calls)  # a traced run covers one pass
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]

    def _calls(self, scene: str, stem: Path) -> list[Call]:
        config, _ = ft.scene.load_scene(scene)
        result = ft.solve(config)
        point = [result.point.x, result.point.y]
        case = "floating" if result.case.is_floating else {"absorbed_at": result.case.index}
        svg_path = f"{stem}.svg"
        calls = [
            Call(("solve", scene, "--json"),
                 {"json": {"case": case, "point": point, "objective": result.objective}}),
            Call(("solve", scene, "--svg", svg_path), {"point": point},
                 ((svg_path, ft.svg.render_svg(config, result)),)),
            Call(("check", scene), {"case": f"case={ft.classify_case(config)}"}),
            Call(("verify-geometric", scene, "--shifts", ",".join(["0.1"] * config.n)),
                 {"invariant": "invariant=holds"}),
        ]
        angles = ft.SectorAngles.from_result(result)
        if config.n == 3:
            weights = ft.weights_from_angles(ft.opposite_angles(result))
        else:
            weights = ft.cosine_system_weights(angles)
        calls.append(Call(("inverse", scene), {"weights": list(weights)}))
        if config.n >= 4:
            w = config.weights_array()
            family = ft.plasticity_n(angles, list(w[3:] / w[0]), total=float(w.sum()))
            calls.append(Call(("plasticity", scene), {"family": list(family)}))
        if config.n == 5:
            csv_path = f"{stem}.csv"
            for kind, evolve, extra, files in (
                ("A", ft.evolve_type_a, ("--csv", csv_path), True),
                ("B", ft.evolve_type_b, (), False),
            ):
                trace = evolve(config, steps=10)
                head = (f"type={trace.type_tag.value} steps={len(trace.steps)} "
                        f"termination={trace.termination.value}")
                content = ((csv_path, ftcircles.cli.trace_csv(trace)),) if files else ()
                calls.append(Call(("evolve", scene, "--type", kind) + extra, {"head": head}, content))
        return calls

    def warmup(self, pool, seed):
        return pool[:self.warmup_count]

    def sequence(self, pool, seed):
        while True:
            yield from pool

    def run(self, call: Call):
        _remove_outputs(call)
        proc = subprocess.run(
            [sys.executable, "-m", "ftcircles.cli", *call.argv],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}")
        return {"stdout": proc.stdout, "files": {p: Path(p).read_text() for p, _ in call.files}}

    def run_in_process(self, call: Call):
        """``ftcircles.cli.main`` on the same argv, stdout captured."""
        _remove_outputs(call)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ftcircles.cli.main(list(call.argv))
        if code != 0:
            raise RuntimeError(f"exit {code}: {buf.getvalue().strip()}")
        return {"stdout": buf.getvalue(), "files": {p: Path(p).read_text() for p, _ in call.files}}

    def check(self, call: Call, out):
        stdout, e = out["stdout"], call.expect
        if "json" in e:
            got = json.loads(stdout)
            if got["case"] != e["json"]["case"]:
                raise CheckFailed(f"case {got['case']} != {e['json']['case']}")
            _check_max("point", np.subtract(got["point"], e["json"]["point"]), 1e-9)
            _check_max("objective", [got["objective"] - e["json"]["objective"]], 1e-9)
        if "point" in e:
            _check_max("point", np.subtract(_numbers(_line(stdout, "point=")), e["point"]), 1e-9)
        for key in ("case", "invariant"):
            if key in e and _line(stdout, key + "=") != e[key]:
                raise CheckFailed(f"{_line(stdout, key + '=')!r} != {e[key]!r}")
        if "case" in e and e["case"] == "case=floating":
            _check_max("cosine residual", _numbers(_line(stdout, "max cosine residual:")),
                       TOL_CERTIFICATE)
        if "weights" in e:
            _check_max("weights", np.subtract(_numbers(_line(stdout, "weights:")), e["weights"]), 1e-6)
        if "family" in e:
            got = _numbers(_line(stdout, "weights:"))
            _check_max("family", np.subtract(got, e["family"]) / sum(e["family"]), 1e-9)
        if "head" in e and stdout.splitlines()[0] != e["head"]:
            raise CheckFailed(f"{stdout.splitlines()[0]!r} != {e['head']!r}")
        for path, content in call.files:
            if out["files"][path] != content:
                raise CheckFailed(f"{path} differs from the in-process output")


WORKLOADS = {w.name: w for w in (SmallN(), LargeN(), OracleSweep(), NearBoundary(), Cli())}
