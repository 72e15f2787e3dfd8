"""Workloads of the kg-lab benchmark: generated inputs, timed ops, output checks.

Started by run.py as the workload's own child process, so its peak RSS is
the workload's alone:

    python3 kgbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR

It prints one JSON object as the last line of its standard output. The
program under test is imported from ``src/`` of the working directory and
is called only through ``kg_lab.cli.main`` and the names ``kg_lab`` exports.

Each workload is a closed loop with one client: the next op starts when the
previous op and its correctness check have finished. Only the op is timed;
checks run between ops, outside the clock. Inputs come from the seed alone.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

import tracing

# At least this many timed ops per measured phase, so that at least ten
# samples lie above p90.
MIN_OPS = 100
# Passes or blocks generated up front; a longer run cycles through them.
PLAN_UNITS = 1000
CATALOG = tracing.SCENARIOS

# The paper's bounds as the catalog meets them (tests/test_acceptance.py
# criteria 3, 4, 5, 7, 8, 9 and the branch-demo sign flip).
CATALOG_BOUNDS: dict[str, Callable[[dict], bool]] = {
    "packet-continuity": lambda r: (r["max_residual_conserved"] <= 1e-6
                                    and r["max_residual_amended"] <= 1e-6),
    "gamma-density": lambda r: max(d["max_rel_deviation"] for d in r["density_vs_gamma"]) <= 1e-3,
    "amended": lambda r: max(d["l2_ratio_to_nonrel"] for d in r["amended_reduction"]) <= 1e-3,
    "branch-demo": lambda r: (all(v > 0 for v in r["branches"]["positive"]["density_ratio_mean"])
                              and all(v < 0 for v in r["branches"]["negative"]["density_ratio_mean"])),
    "two-mode": lambda r: r["min_density"] < 0.0,
    "superposition-scan": lambda r: r["amplitude_vs_state_max_diff"] <= 1e-10,
    "nonrel-limit": lambda r: r["gap_ratio"] >= 3.5,
}

SWEEP_DT = 1e-3
SWEEP_UNITS = {"hbar": 1.0, "c": 1.0, "m": 4.0}
# Same spacing dx on both grids: n=4096 arrays (64 KiB) fit in L2,
# the n=65536 working set (8 MiB and more) does not.
SWEEP_GRIDS = {"small": (4096, 400.0), "large": (65536, 6400.0)}
SCAN_GRID = (2048, 400.0)
SCAN_MODES = {"small": 8, "large": 64}
SCAN_INDEX_RANGE = 300
SCAN_REL_TOL = 1e-10


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def inputs_digest(workload: Any) -> str:
    """SHA-256 of a workload's generated inputs (configs, specs and order)."""
    return hashlib.sha256(json.dumps(workload.inputs, sort_keys=True).encode()).hexdigest()


def _blocks(rng: np.random.Generator) -> list[list[str]]:
    """Three small ops for every large one, in a seed-shuffled order per block."""
    return [list(rng.permutation(["small", "small", "small", "large"]))
            for _ in range(PLAN_UNITS)]


class Catalog:
    """One op is one ``kg-lab run`` of a catalog scenario in one format."""

    def __init__(self, kg: Any, fmt: str, seed: int, work: Path) -> None:
        self.cli = importlib.import_module("kg_lab.cli")
        self.fmt = fmt
        self.work = work
        rng = np.random.default_rng(seed)
        self.order = [[str(name) for name in rng.permutation(CATALOG)] for _ in range(PLAN_UNITS)]
        configs = {name: json.dumps({"scenario": name}) for name in CATALOG}
        self.inputs = {"format": fmt, "configs": configs, "order": self.order}
        self.configs = {}
        for name, text in configs.items():
            cfg = work / "configs" / f"{name}.json"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(text, encoding="utf-8")
            self.configs[name] = str(cfg)
        # SHA-256 of each output file of each scenario's first run, per format.
        self.reference: dict[str, dict[str, dict[str, str]]] = {"csv": {}, "json": {}}
        self.bound_errors: dict[tuple[str, str], Optional[str]] = {}

    def unit(self, k: int) -> list[Op]:
        return [self._op(name, self.fmt) for name in self.order[k % PLAN_UNITS]]

    def other_format_pass(self) -> list[Op]:
        """Each scenario once in the other format, so that a run records the
        SHA-256 of every catalog output in both formats."""
        other = "json" if self.fmt == "csv" else "csv"
        return [self._op(name, other) for name in CATALOG]

    def _op(self, name: str, fmt: str) -> Op:
        out = self.work / fmt / name
        argv = ["run", self.configs[name], "--out", str(out), "--format", fmt, "--quiet"]
        return Op(name, lambda: self.cli.main(argv), lambda rc: self._check(name, fmt, out, rc))

    def _check(self, name: str, fmt: str, out: Path, rc: int) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.iterdir())}
        reference = self.reference[fmt]
        if name not in reference:
            reference[name] = hashes
            self.bound_errors[fmt, name] = self._bounds(name, out / f"{name}_run.json")
        elif hashes != reference[name]:
            return "output differs from the first pass"
        return self.bound_errors[fmt, name]

    @staticmethod
    def _bounds(name: str, run_json: Path) -> Optional[str]:
        try:
            results = json.loads(run_json.read_text(encoding="utf-8"))["results"]
            ok = CATALOG_BOUNDS[name](results)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"cannot read results from {run_json.name}: {exc!r}"
        return None if ok else f"results outside the paper's bounds in {run_json.name}"


class PacketSweep:
    """Gaussian packets evolved to log-uniform t in [1, 1e6], with no file I/O.

    One op: build the packet, evolve to t, compute_fields, the t -/+ dt
    snapshots, continuity_residual and moments.
    """

    def __init__(self, kg: Any, seed: int, work: Path) -> None:
        self.kg = kg
        rng = np.random.default_rng(seed)
        self.units = kg.UnitSystem(**SWEEP_UNITS)
        self.grids = {size: kg.make_grid(n, length) for size, (n, length) in SWEEP_GRIDS.items()}
        # |x0| + 6 sigma <= 112 keeps packets far from the support limit of
        # 200: near it, gaussian_packet can build a state that fails its own
        # Nyquist check (1.7e-10 > 1e-10 at x0=48, sigma=19.9 on n=4096).
        self.plan = [[{
            "size": str(size),
            "kind": str(rng.choice(["kg", "schrodinger"])),
            "x0": float(rng.uniform(-40.0, 40.0)),
            "k0": float(rng.uniform(-5.0, 5.0)),
            "sigma": float(rng.uniform(4.0, 12.0)),
            "t": float(10.0 ** rng.uniform(0.0, 6.0)),
        } for size in block] for block in _blocks(rng)]
        self.inputs = {"units": SWEEP_UNITS, "grids": SWEEP_GRIDS, "dt": SWEEP_DT,
                       "plan": self.plan}

    def unit(self, k: int) -> list[Op]:
        return [self._op(spec) for spec in self.plan[k % PLAN_UNITS]]

    def _op(self, spec: dict[str, Any]) -> Op:
        kg = self.kg
        grid = self.grids[spec["size"]]
        packet = kg.PacketSpec(x0=spec["x0"], k0=spec["k0"], sigma=spec["sigma"])
        kind = (kg.DispersionKind.KLEIN_GORDON_POSITIVE if spec["kind"] == "kg"
                else kg.DispersionKind.SCHRODINGER)
        t, units = spec["t"], self.units
        rho = "rho_kg" if spec["kind"] == "kg" else "rho_nonrel"

        def run():
            state = kg.gaussian_packet(packet, grid, units, kind)
            result = kg.evolve(state, t)
            fields = kg.compute_fields(result)
            before = getattr(kg.compute_fields(kg.evolve(state, t - SWEEP_DT)), rho)
            after = getattr(kg.compute_fields(kg.evolve(state, t + SWEEP_DT)), rho)
            residual = kg.continuity_residual(before, after, fields.j_std, SWEEP_DT, grid)
            mom = kg.moments(getattr(fields, rho), grid)
            return kg.state_norm(grid, result.state.values), mom, residual

        return Op(f"{spec['size']}-{spec['kind']}", run, self._check)

    @staticmethod
    def _check(result: tuple) -> Optional[str]:
        norm, mom, residual = result
        if abs(norm - 1.0) > 1e-10:
            return f"norm {norm!r} is not 1 within 1e-10"
        if not all(map(math.isfinite, (*mom, residual))):
            return f"non-finite moments {tuple(mom)!r} or residual {residual!r}"
        return None


class ModeScan:
    """Amplitude-space densities of random lattice superpositions (n=2048).

    One op is one superposition_density call. The check compares it with
    density_kg of the evolved state, the cross-check superposition-scan uses.
    """

    def __init__(self, kg: Any, seed: int, work: Path) -> None:
        self.kg = kg
        rng = np.random.default_rng(seed)
        self.units = kg.UnitSystem(hbar=1.0, c=1.0, m=1.0)
        self.grid = kg.make_grid(*SCAN_GRID)
        lattice = np.arange(-SCAN_INDEX_RANGE, SCAN_INDEX_RANGE + 1)
        self.plan = []
        for block in _blocks(rng):
            ops = []
            for size in block:
                m = SCAN_MODES[size]
                amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                amps /= np.linalg.norm(amps)
                ops.append({"size": str(size),
                            "index": [int(j) for j in rng.choice(lattice, size=m, replace=False)],
                            "amplitude": [[float(a.real), float(a.imag)] for a in amps],
                            "t": float(rng.uniform(0.0, 50.0))})
            self.plan.append(ops)
        self.inputs = {"grid": SCAN_GRID, "plan": self.plan}

    def unit(self, k: int) -> list[Op]:
        return [self._op(spec) for spec in self.plan[k % PLAN_UNITS]]

    def _op(self, spec: dict[str, Any]) -> Op:
        kg, grid, units, t = self.kg, self.grid, self.units, spec["t"]
        modes = kg.ModeSet([(complex(re, im), float(grid.wavenumbers[j % grid.n]))
                            for (re, im), j in zip(spec["amplitude"], spec["index"])])

        def check(sd) -> Optional[str]:
            state = kg.superposition(modes, grid, units, kg.DispersionKind.KLEIN_GORDON_POSITIVE)
            result = kg.evolve(state, t)
            direct = kg.density_kg(result.state.values, result.dpsi_dt, units)
            gap = float(np.max(np.abs(sd.rho - direct)))
            scale = float(np.max(np.abs(direct)))
            if not gap <= SCAN_REL_TOL * scale:
                return f"amplitude-space density differs from density_kg by {gap:.3e} of {scale:.3e}"
            return None

        return Op(f"{spec['size']}-{len(spec['index'])}",
                  lambda: kg.superposition_density(modes, t, grid, units), check)


WORKLOADS: dict[str, Callable[[Any, int, Path], Any]] = {
    "catalog-csv": lambda kg, seed, work: Catalog(kg, "csv", seed, work),
    "catalog-json": lambda kg, seed, work: Catalog(kg, "json", seed, work),
    "packet-sweep": PacketSweep,
    "mode-scan": ModeScan,
}


class Loop:
    """Closed loop with one client over a workload's units (passes or blocks)."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.next_unit = 0
        self.next_op = 0
        self.attempted = 0
        self.failures: list[str] = []

    def _run_op(self, op: Op, tracer: Optional[tracing.Tracer]) -> float:
        op_id = self.next_op
        self.next_op += 1
        if tracer is not None:
            tracer.begin_op(op_id, op.label)
        error = None
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:
            elapsed = perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
        else:
            elapsed = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.end_op()
        if error is None:
            error = op.check(result)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"op {op_id} ({op.label}): {error}")
        return elapsed

    def run_untimed(self, ops: list[Op]) -> None:
        for op in ops:
            self._run_op(op, None)

    def warm_up(self) -> None:
        """One unit, untimed but checked; for the catalog it is the first
        pass that every rerun must reproduce byte for byte."""
        self.run_untimed(self.workload.unit(self.next_unit))
        self.next_unit += 1

    def run(self, seconds: float, min_ops: int,
            tracer: Optional[tracing.Tracer] = None) -> list[float]:
        """Run whole units until `seconds` have passed and `min_ops` ops are timed."""
        latencies: list[float] = []
        start = perf_counter()
        while not latencies or perf_counter() - start < seconds or len(latencies) < min_ops:
            for op in self.workload.unit(self.next_unit):
                latencies.append(self._run_op(op, tracer))
            self.next_unit += 1
        return latencies


def fft_floor(n: int, reps: int = 31) -> float:
    """Median time of one np.fft.fft of n complex samples."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for _ in range(3):
        np.fft.fft(a)
    times = []
    for _ in range(reps):
        start = perf_counter()
        np.fft.fft(a)
        times.append(perf_counter() - start)
    return sorted(times)[reps // 2]


def environment(kg: Any) -> dict[str, Any]:
    kernels = sys.modules.get("kg_lab._kernels")
    backend = getattr(kernels, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kg_lab": getattr(kg, "__version__", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend() if callable(backend) else None,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def ops_per_s(latencies: list[float]) -> float:
    """Timed ops per second of time on the clock."""
    return len(latencies) / sum(latencies)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    kg = importlib.import_module("kg_lab")
    if Path(kg.__file__).resolve().parent.parent != src:
        print(f"kgbench: imported kg_lab from {kg.__file__}, not from {src}", file=sys.stderr)
        return 2
    importlib.import_module("kg_lab.cli")

    workload = WORKLOADS[args.workload](kg, args.seed, args.work)
    loop = Loop(workload)
    loop.warm_up()

    out: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": inputs_digest(workload),
        "environment": environment(kg),
    }
    if args.trace == 0:
        latencies = loop.run(args.seconds, MIN_OPS)
        out["latencies_s"] = latencies
    else:
        untraced = loop.run(args.seconds / 2.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = loop.run(args.seconds / 2.0, 1, tracer)
        finally:
            tracer.uninstall()
        summary = tracing.summarize(tracer)
        floors = {n: fft_floor(n) for n in summary["evolve_sizes"]}
        overhead = ops_per_s(traced) / ops_per_s(untraced)
        out["trace"] = {
            "metrics": tracing.per_layer_metrics(summary, floors, overhead,
                                                 len(loop.failures) / loop.attempted),
            "self_s_per_op": tracing.self_time_tables(summary),
            "calls": {name: row["calls"] for name, row in summary["names"].items()},
            "counts_by_label": summary["labels"],
            "fft_floor_s": floors,
            "ops_untraced": len(untraced),
            "ops_traced": len(traced),
            "absent": tracer.absent,
            "spans": len(tracer.spans),
        }
        spans_path = args.work.parent / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans_path)
        out["trace"]["spans_file"] = str(spans_path.relative_to(Path.cwd()))
    # Peak memory of the timed loop, before the untimed other-format pass.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if isinstance(workload, Catalog):
        loop.run_untimed(workload.other_format_pass())
        out["output_sha256"] = workload.reference
    out["attempted"] = loop.attempted
    out["failures"] = loop.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
