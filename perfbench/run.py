"""Benchmark for ftcircles: one command per workload, from the repository root.

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``): small-n,
large-n, oracle-sweep, near-boundary, cli.

``--trace 0`` prints the end-to-end metrics: ``items_per_s``,
``item_ms_p50``, ``item_ms_tail``, ``ok_frac`` (1 - failed_frac),
``setup_s`` and ``peak_rss_mb``. Every run is a fresh single-threaded worker
process (BLAS pinned to one thread) driving a closed loop with one caller
over passes of a seeded scene pool, each pass a fresh translation of it.
Times are at reference host speed: a fixed reference kernel that never
calls ftcircles runs between items, about every 50 ms of item time, and
each item's latency is scaled by ``REFERENCE_MS`` (``perfbench/worker.py``)
over the kernel's median time in the item's pass, so a shared host's slow
spells cancel. A scene's latency is the median over its runs;
``items_per_s`` is one caller's rate at those latencies, scenes / the sum
of their latencies. The header line also prints the unscaled wall-clock
rate.
``setup_s`` runs from launching a worker to its first timed item, in
wall-clock seconds; it is the median of five workers set up with the same
seed, the last of which goes on to the timed loop.

``--trace 1`` prints the per-layer metrics from ``perfbench/tracer.py``:
calls and self time of the public functions of each ``ftcircles`` module,
solver counters, the import breakdown and ``trace.overhead_frac``. Spans
are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The command exits
non-zero without that line when the program or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END_UNITS, per_layer_units

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
BUDGET_S = 175.0  # the whole command must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Start one worker; returns (launch time, its report). Raises on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    # own session, so a timeout also kills the CLI processes a worker started
    with subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - launched, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return launched, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/ftcircles/__init__.py").is_file():
        print("perfbench: run from the repository root; src/ftcircles is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            _, report = launch(args, setup_only=False, deadline=deadline)
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                launched, ready = launch(args, setup_only=True, deadline=deadline)
                setups.append(ready["t_ready"] - launched)
            launched, report = launch(args, setup_only=False, deadline=deadline)
            setups.append(report["t_ready"] - launched)
            report["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    units = per_layer_units() if args.trace else {**END_TO_END_UNITS, "setup_s": "s"}
    metrics = {name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()}
    failed_frac = report["failed"] / report["attempted"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"failed_frac={failed_frac:.6g} failures={report['failures']}")
    if not args.trace:
        print(f"latencies are each scene's median of {report['attempted'] / report['scenes']:.1f} "
              f"runs on average; item_ms_tail is p{report['tail_percentile']} of {report['scenes']} scenes; "
              f"reference kernel median {report['kernel_ms']:.4g} ms; "
              f"unscaled wall-clock items_per_s {report['wall_items_per_s']:.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
