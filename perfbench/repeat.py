"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --runs 10 [--workloads small-n,cli] [--out FILE]

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which is
how ``BENCHMARK.json`` bounds are checked. Seeds run from 1; runs are
untraced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None, help="write every run and the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"seed": seed, **result})
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds[name]
            note = f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"{workload:14s} {name:44s} median {median:12.6g}  spread {spread:7.4f}{note}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload:14s} failed {failed}/{attempted} items, correct in "
              f"{sum(r['correct'] for r in runs)}/{len(runs)} runs")
        record[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
