"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --label seed --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out perfbench/results/BENCH_seed.json

Run from the repository root.  For every workload it makes one end-to-end
run per seed, one after another, and one traced run with the first seed.
It prints, per end-to-end metric, the median of the runs and the spread
(distance between the first and third quartile, as a share of the median)
next to the bound in ``BENCHMARK.json``, and writes every run's output,
the summary and the machine it ran on to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail "):
            result["detail"] = json.loads(line[len("detail "):])
    return result


def summary(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med,
            "bound": bounds.get(name),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    record = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            runs.append(bench(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: attempted {runs[-1]['attempted']}"
                  f" failed {runs[-1]['failed']} correct {runs[-1]['correct']}"
                  f" in {time.perf_counter() - start:.0f} s", flush=True)
        entry = {"summary": summary(runs, bounds), "runs": runs}
        for name, s in entry["summary"].items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {s['median']:12.6g} {s['unit']:6s}"
                  f" spread {s['spread']:.3f} (bound {s['bound']}){flag}", flush=True)
        if not args.no_trace:
            start = time.perf_counter()
            entry["trace"] = bench(workload, args.seeds[0], spec["run_seconds"], 1)
            print(f"{workload} traced run in {time.perf_counter() - start:.0f} s", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
