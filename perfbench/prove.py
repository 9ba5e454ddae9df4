"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads readme,cli] [--trace 1] [--out FILE]

For every metric it prints the median over the runs, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median, next to
the metric's bound from BENCHMARK.json. Per-layer counts are marked
"identical" when every run gave the same value (pass one seed twice, as in
--seeds 1,1, to check that they repeat). Runs go one after another, never in
parallel. --out writes the same figures, every run's values and the machine
they came from as JSON.
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

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    report = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            header = dict(f.split("=", 1) for f in lines[0].split()[1:] if "=" in f)
            report["import"] = header.get("import")
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(f"{name} seed={seed} wall={wall:.1f}s attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        summary = {}
        for m in metrics_spec:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / abs(median) if median else None
            summary[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "values": values}
            bound = m.get("bound")
            if bound is not None:
                steady = spread is not None and spread <= bound / 3
                flag = f" bound={bound} {'ok' if steady else 'WIDE'}"
            elif m["unit"] == "count":
                flag = " identical" if len(set(values)) == 1 else " DIFFERS"
            else:
                flag = ""
            shown = "-" if spread is None else f"{spread:.3f}"
            print(f"  {m['name']:32s} median={median:12.6g} {m['unit']:6s} spread={shown}{flag}")
        report["workloads"][name] = {
            "metrics": summary,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
