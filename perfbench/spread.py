"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

Each run is one ``perfbench/run.py`` process with the run length from
``BENCHMARK.json``.  For every end-to-end metric (per-layer with
``--trace 1``) it prints the median, the quartiles and the spread, the
distance between the quartiles as a share of the median.  This is how the
baseline in ``perfbench/baseline.json`` was made, and how a later change
reports its runs against it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = ("python", "implementation", "platform", "cpu_count", "CHAINDEX_THREADS")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the summary as JSON")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            command = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = run.stdout.splitlines()
            env = json.loads(lines[0].removeprefix("env "))
            result = json.loads(lines[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        environment = {key: env[key] for key in ENVIRONMENT}
        report[workload] = {"environment": environment, "seeds": args.seeds, "failed": failed,
                            "metrics": {name: summarize(v) for name, v in values.items()}}
        print(f"{workload}: {len(args.seeds)} runs, {failed} failed operations")
        for name, stats in report[workload]["metrics"].items():
            print(f"  {name:36s} median {stats['median']:.6g}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
