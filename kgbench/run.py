"""kg-lab benchmark: one workload, one seed, one run.

    python3 kgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a kg-lab checkout; it imports the package from
``src/``. With ``--trace 0`` it measures the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md). It
prints a readable report, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``, and writes the full results,
environment included, to ``.kgbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, ops_per_s  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
SETUP_REPS = 9
CHILD_TIMEOUT_S = 170.0
# One thread per process: the loop is a single client in a single process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def interpreter_start(env: dict[str, str], root: Path) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import kg_lab.cli"], cwd=root, env=env, check=True)
    return perf_counter() - start


def measure_setup(env: dict[str, str], root: Path) -> dict[str, Any]:
    """Fresh-interpreter start plus ``import kg_lab.cli``, median of SETUP_REPS.

    The first start is a warm-up that also writes the bytecode cache.
    """
    interpreter_start(env, root)
    samples = [interpreter_start(env, root) for _ in range(SETUP_REPS)]
    return {"setup_s": statistics.median(samples), "samples_s": samples}


def end_to_end(child: dict[str, Any], setup: dict[str, Any]) -> dict[str, float]:
    latencies = child["latencies_s"]
    return {
        "ops_per_s": ops_per_s(latencies),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def report(workload: str, child: dict[str, Any], metrics: dict[str, float],
           units: dict[str, str], results_path: Path) -> None:
    print(f"kgbench {workload} seed={child['seed']} inputs={child['inputs_sha256'][:16]}")
    print("environment: " + json.dumps(child["environment"], sort_keys=True))
    for name, value in metrics.items():
        line = f"  {name:<52} {value:>14.6g} {units[name]}"
        if name.startswith("latency_"):
            line += f"  (n={len(child['latencies_s'])})"
        print(line)
    if "latencies_s" in child:
        above = sum(v > metrics["latency_p90_s"] for v in child["latencies_s"])
        print(f"  samples above p90: {above}")
    if "trace" in child:
        trace = child["trace"]
        layers = ", ".join(f"{k} {v:.3g}" for k, v in trace["self_s_per_op"]["by_layer"].items())
        print(f"  self s/op by layer: {layers}")
        top = list(trace["self_s_per_op"]["by_name"].items())[:5]
        print("  largest self s/op: " + ", ".join(f"{k} {v:.3g}" for k, v in top))
        if trace["absent"]:
            print(f"  absent trace targets: {', '.join(trace['absent'])}")
    print(f"  error_rate {len(child['failures']) / child['attempted']:.6g} "
          f"({len(child['failures'])} of {child['attempted']} ops failed)")
    for failure in child["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"results: {results_path}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="kg-lab benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "kg_lab" / "__init__.py").is_file():
        print(f"kgbench: no kg-lab source tree at {root / 'src' / 'kg_lab'}; "
              "run from the root of a kg-lab checkout", file=sys.stderr)
        return 2
    state = root / ".kgbench"
    work = state / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)

    setup = measure_setup(env, root) if args.trace == 0 else None
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"kgbench: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(lines[-1])

    if args.trace == 0:
        metrics, units = end_to_end(child, setup), dict(END_TO_END)
    else:
        metrics, units = child["trace"]["metrics"], dict(tracing.PER_LAYER)
    failed = len(child["failures"])
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "units": units,
              "setup": setup, "child": child}
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    report(args.workload, child, metrics, units, results_path.relative_to(root))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": child["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
