"""Run one chaindex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-range --seed 7 --seconds 38 --trace 0

Run from the root of a checkout that holds ``src/chaindex``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with no wrapper installed; with
``--trace 1`` they are the per-layer ones, from passes run under the span
tracer, plus the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, fresh_import, loaded_modules

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

# Set-up is timed this many times and the median reported: one import is
# too short to time once on a shared machine.
SETUP_REPEATS = 9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=38.0,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed: int) -> float:
    """Import chaindex, generate the inputs and warm up; the median of
    SETUP_REPEATS repetitions."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = fresh_import()
        workload.prepare(mods, seed)
        workload.warm_up(mods)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_passes(workload, budget: float, tracer=None) -> tuple[list, list, list]:
    """Run passes until another one would overrun ``budget`` seconds.

    Each pass starts from a fresh import, which is not timed.  Returns each
    pass's Outcome, its wall seconds and, under a tracer, its per-layer
    metrics.
    """
    outcomes, walls, layers = [], [], []
    while True:
        mods = fresh_import()
        if tracer is not None:
            tracer.reset()
            tracing.install(tracer, {name: getattr(mods, name) for name in tracing.LAYERS},
                            loaded_modules())
        start = time.perf_counter()
        outcomes.append(workload.run_pass(mods))
        walls.append(time.perf_counter() - start)
        if tracer is not None:
            layers.append(tracer.summarize())
        if sum(walls) + statistics.median(walls) > budget:
            return outcomes, walls, layers


def typical_pass(outcomes, column: int) -> float:
    """Seconds of a typical pass: each operation's median over the passes,
    summed (column 0 is wall time, 1 is CPU time).

    A burst of load from elsewhere on the machine lands in one operation of
    one pass; a median per operation leaves it out, where a median of
    whole passes would not.
    """
    return sum(
        statistics.median(outcome.seconds[label][column] for outcome in outcomes)
        for label in outcomes[0].seconds
    )


def measure(args, workload) -> tuple[list, dict, dict]:
    setup_s = set_up(workload, args.seed)
    if not args.trace:
        outcomes, walls, _ = timed_passes(workload, args.seconds)
        metrics = {
            "wall_s": typical_pass(outcomes, 0),
            "cpu_s": typical_pass(outcomes, 1),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return outcomes, metrics, {"pass_wall_s": walls}

    # One untraced pass is the base of the overhead ratio; traced passes
    # use the rest of the budget.
    base, base_walls, _ = timed_passes(workload, 0.0)
    tracer = tracing.Tracer(time.perf_counter)
    outcomes, walls, layers = timed_passes(workload, args.seconds - base_walls[0], tracer)
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name, *_ in tracing.PER_LAYER}
    metrics["trace.overhead"] = typical_pass(outcomes, 0) / typical_pass(base, 0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.jsonl"
    tracer.write_spans(spans_path)
    info = {"untraced_pass_wall_s": base_walls[0], "pass_wall_s": walls,
            "absent": tracer.absent, "spans": str(spans_path.relative_to(ROOT))}
    return base + outcomes, metrics, info


def units() -> dict:
    table = dict(END_TO_END_UNITS)
    table.update({name: unit for name, unit, *_ in tracing.PER_LAYER})
    table["trace.overhead"] = "x"
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chaindex" / "__init__.py").is_file():
        print(f"run.py: no chaindex sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # Pinned before chaindex is imported: verify runs sizes in one process.
    os.environ["CHAINDEX_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.find_spec("chaindex")
    if spec is None or Path(spec.origin).resolve().parent != ROOT / "src" / "chaindex":
        print("run.py: chaindex does not import from this checkout's src/", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp))
        outcomes, metrics, info = measure(args, workload)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "CHAINDEX_THREADS": os.environ["CHAINDEX_THREADS"],
        **info,
    }
    print("env " + json.dumps(env))
    table = units()
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {table[name]}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for reason in [r for outcome in outcomes for r in outcome.reasons][:5]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
