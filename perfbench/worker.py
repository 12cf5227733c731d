"""One workload run in a fresh process; prints one JSON object as its last line.

``perfbench/run.py`` starts this with ``PYTHONPATH=src`` and BLAS pinned to
one thread. Modes:

* ``--setup-only``: import, generate inputs, warm up, report ``t_ready``.
* ``--trace 0``: then run a closed loop with one caller over passes of the
  pool for ``--seconds`` and report the end-to-end metrics from each
  scene's median latency at reference host speed.
* ``--trace 1``: run the workload's fixed item prefix untraced, then the
  same items traced, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice

import numpy as np

import tracer as tracing
import workloads as wl
from metrics import FAILURES, IMPORTED, TRACED_FUNCTIONS

class Counters:
    """Counts that need a call's arguments or result, fed by tracer hooks."""

    def __init__(self):
        self.iterations_sum = 0
        self.iterations_max = 0
        self.absorbed = 0
        self.repeat_solves = 0
        self.points = 0
        self._solved = set()

    def on_solve(self, args, kwargs, result):
        self.iterations_sum += result.iterations
        self.iterations_max = max(self.iterations_max, result.iterations)
        self.absorbed += not result.case.is_floating
        config = args[0] if args else kwargs["config"]
        if config in self._solved:
            self.repeat_solves += 1
        self._solved.add(config)

    def on_objective(self, args, kwargs, result):
        points = args[1] if len(args) > 1 else kwargs["points"]
        self.points += np.atleast_2d(np.asarray(points)).shape[0]

    def hooks(self) -> dict:
        return {"solver.solve": self.on_solve, "oracle.objective": self.on_objective}


# A run's item latencies are scaled to a host on which the reference kernel
# takes REFERENCE_MS, close to its time on the 2-vCPU Xeon VM the baseline
# was measured on.
REFERENCE_MS = 2.0
KERNEL_EVERY_S = 0.05
_REF_POINTS = np.random.default_rng(0).uniform(-3.0, 3.0, size=(6, 2))
_REF_GRID = np.random.default_rng(1).uniform(-3.0, 3.0, size=(4000, 2))


def reference_kernel() -> float:
    """Fixed work that never calls ftcircles: pure-Python float math, small
    numpy calls and one larger array, the kinds of work the workloads do.
    A shared host slows it about as much as it slows the items around it."""
    s = 0.0
    for i in range(1500):
        x = i * 1e-3
        s += math.atan2(x, 1.0 + x) * math.sqrt(1.0 + x * x)
    for i in range(60):
        d = _REF_POINTS - _REF_POINTS[i % 6]
        s += float(np.hypot(d[:, 0], d[:, 1]).sum())
    d = _REF_GRID[:, None, :] - _REF_POINTS[None, :, :]
    return s + float(np.hypot(d[..., 0], d[..., 1]).sum())


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scene_latencies(latencies: list[float], speeds: list[float], pool_size: int) -> list[float]:
    """Each pool scene's median latency over its runs, at reference host speed.

    The timed loop walks the pool in whole passes, so item ``k`` is a
    translated copy of scene ``k % pool_size`` run in pass ``k // pool_size``;
    ``speeds`` holds each pass's median reference-kernel time. An item's
    latency is scaled by ``REFERENCE_MS`` over its pass's kernel time: a host
    that is slower for seconds or for a whole run, as a shared one is, slows
    both alike, and the ratio stays.
    """
    runs = [[] for _ in range(pool_size)]
    for k, seconds in enumerate(latencies):
        runs[k % pool_size].append(seconds * REFERENCE_MS * 1e-3 / speeds[k // pool_size])
    return [statistics.median(r) for r in runs]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, in 0.1 steps, with at
    least 10 values beyond it, by nearest rank. With 10 or fewer values it
    is their maximum, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    pct = math.floor(1000.0 * (n - 10) / n) / 10.0
    return pct, ordered[math.ceil(pct / 100.0 * n) - 1]


def attempt(run, check, item) -> tuple[float, str | None]:
    """Run one item and its check; returns (item seconds, failure label or None).

    The item latency covers the pipeline; the check runs after the clock
    stops. Any exception is an item failure and is counted, never retried.
    """
    t0 = time.perf_counter()
    try:
        out = run(item)
    except Exception as exc:  # every failure of the program is counted
        return time.perf_counter() - t0, type(exc).__name__
    elapsed = time.perf_counter() - t0
    try:
        check(item, out)
    except wl.CheckFailed:
        return elapsed, "check"
    return elapsed, None


def timed_run(workload, pool, seed: int, seconds: float) -> dict:
    """Closed loop over the pool's translated passes for ``seconds``; ends on
    a pass boundary. The reference kernel runs between items, outside their
    latencies, once at least ``KERNEL_EVERY_S`` of item time has passed since
    its last run, and at least once in every pass."""
    items = workload.sequence(pool, seed)
    latencies, speeds, failures = [], [], {}
    kernel_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        kernel, since = [], math.inf
        for _ in range(len(pool)):
            elapsed, failure = attempt(workload.run, workload.check, next(items))
            latencies.append(elapsed)
            if failure:
                failures[failure] = failures.get(failure, 0) + 1
            since += elapsed
            if since >= KERNEL_EVERY_S:
                kernel.append(time_reference())
                since = 0.0
        speeds.append(statistics.median(kernel))
        kernel_s += sum(kernel)
    wall = time.perf_counter() - start - kernel_s
    n = len(latencies)
    scenes = scene_latencies(latencies, speeds, len(pool))
    pct, tail_s = tail(scenes)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        **outcome(workload, n, failures),
        "scenes": len(scenes),
        "tail_percentile": pct,
        "wall_items_per_s": n / wall,
        "kernel_ms": statistics.median(speeds) * 1e3,
        "metrics": {
            "items_per_s": len(scenes) / sum(scenes),
            "item_ms_p50": statistics.median(scenes) * 1e3,
            "item_ms_tail": tail_s * 1e3,
            "ok_frac": (n - sum(failures.values())) / n,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        },
    }


def outcome(workload, attempted: int, failures: dict) -> dict:
    """Item counts; a run is correct while no item raised an error the workload
    does not allow and its check failures stay within the workload's allowance."""
    raised = sum(count for label, count in failures.items()
                 if label not in ("check", *workload.allowed_errors))
    return {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "correct": raised == 0
        and failures.get("check", 0) <= workload.allowed_check_failures * attempted,
    }


def import_breakdown() -> dict[str, float]:
    """Import ms of numpy, scipy and ftcircles from ``-X importtime``.

    ``ftcircles`` is the whole ``import ftcircles``. numpy and scipy get the
    self time of every module whose nearest enclosing numpy/scipy import
    (itself included) is theirs, so a numpy module that scipy imports counts
    for numpy, and a standard-library module that scipy imports for scipy.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ftcircles"],
                          capture_output=True, text=True, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # header or unrelated output
        name = parts[2].lstrip(" ")
        depth = (len(parts[2]) - len(name) - 1) // 2
        rows.append((depth, name, int(parts[0]), int(parts[1])))
    totals = dict.fromkeys(IMPORTED, 0.0)
    path: list[str] = []
    for depth, name, self_us, cumulative_us in reversed(rows):  # parents before children
        del path[depth:]
        path.append(name)
        if name == "ftcircles":
            totals["ftcircles"] = cumulative_us / 1e3
        owner = next((p.split(".")[0] for p in reversed(path)
                      if p.split(".")[0] in ("numpy", "scipy")), None)
        if owner:
            totals[owner] += self_us / 1e3
    return totals


def traced_run(workload, pool, seed: int, setup_trace: tracing.Tracer) -> dict:
    items = list(islice(workload.sequence(pool, seed), workload.trace_items))
    run, check = workload.run_in_process, workload.check
    # Three passes over translated copies of the same items: a warm pass for
    # code paths the set-up warm-up did not reach (the in-process CLI), an
    # untraced pass and a traced one. Distinct copies keep a result cache
    # from carrying over between passes.
    rng = np.random.default_rng([seed, 3])
    warm, plain, traced_items = ([item.moved(rng.uniform(-3.0, 3.0, size=2)) for item in items]
                                 for _ in range(3))
    for item in warm:
        attempt(run, check, item)
    start = time.perf_counter()
    for item in plain:
        attempt(run, check, item)
    untraced = time.perf_counter() - start

    counters = Counters()
    trace = tracing.Tracer(hooks=counters.hooks())
    failures = {}
    with trace:
        start = time.perf_counter()
        for item in traced_items:
            _, failure = attempt(run, check, item)
            if failure:
                failures[failure] = failures.get(failure, 0) + 1
        traced = time.perf_counter() - start
    wl.OUT_DIR.mkdir(exist_ok=True)
    trace.write(wl.OUT_DIR / f"spans-{workload.name}-{seed}.npz")
    setup_trace.write(wl.OUT_DIR / f"spans-{workload.name}-{seed}-setup.npz")

    spans = trace.summary()
    empty = {"calls": 0, "self_ms": 0.0, "failed": {}}
    values = {}
    for kind, names in TRACED_FUNCTIONS.items():
        for name in names:
            values[f"{name}.{kind}"] = spans.get(name, empty)[kind]
    solve_failed = spans.get("solver.solve", empty)["failed"]
    for exc in FAILURES:
        values[f"solver.failed.{exc}"] = solve_failed.get(exc, {}).get("calls", 0)
    values["solver.failed.self_ms"] = sum(f["self_ms"] for f in solve_failed.values())
    values["solver.iterations.sum"] = counters.iterations_sum
    values["solver.iterations.max"] = counters.iterations_max
    values["solver.repeat_solves"] = counters.repeat_solves
    values["solver.absorbed"] = counters.absorbed
    values["oracle.objective.points"] = counters.points
    setup = setup_trace.summary()
    generated = setup.get("oracle.random_floating_config", empty)
    values["oracle.random_floating_config.self_ms"] = generated["self_ms"]
    solves = setup_trace.calls_within("solver.solve", "oracle.random_floating_config")
    values["oracle.random_floating_config.accept_ratio"] = generated["calls"] / solves if solves else 0.0
    imports = [import_breakdown() for _ in range(3)]
    for name in IMPORTED:
        values[f"cli.import_ms.{name}"] = statistics.median(i[name] for i in imports)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {**outcome(workload, len(items), failures), "metrics": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    setup_trace = tracing.Tracer()
    with setup_trace if args.trace else contextlib.nullcontext():
        pool = workload.make(args.seed)
    for item in workload.warmup(pool, args.seed):
        attempt(workload.run, workload.check, item)
    report = {"t_ready": time.monotonic()}
    if not args.setup_only:
        if args.trace:
            report.update(traced_run(workload, pool, args.seed, setup_trace))
        else:
            report.update(timed_run(workload, pool, args.seed, args.seconds))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
