"""Span tracer for the traced run of the kg-lab benchmark.

The tracer rebinds every public function of each kg_lab submodule, in every
kg_lab module that holds a reference to it (``propagation`` imports
``inverse_transform`` by name and ``scenarios`` imports ``evolve`` by name,
so patching only the defining module would miss those calls), and wraps
``pathlib.Path.write_bytes`` and ``write_text`` as the ``io`` layer. Nothing
under ``src/`` changes; ``uninstall`` restores every binding.

A span is ``[name, start, end, parent, op_id, failed, info]``. Spans are
recorded only while an op is open, stay in memory and are written out when
the run ends. ``info`` carries what a counter needs from the call: the
``(state, t)`` key and grid size of an ``evolve``, the pair-term count of a
``pair_density`` call, the bytes of a write. It is computed after the
span's clock stops.

Self time is a span's duration minus the time its child spans cover.
kg-lab has no queue, pool or lock, so no layer has waiting time to report.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pathlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

# Modules imported before wrapping (every loaded kg_lab submodule is wrapped);
# a layer is named after its module, without the leading underscore, since
# metric names start with a letter.
MODULES = ("cli", "scenarios", "propagation", "states", "foundation",
           "observables", "dispersion", "_kernels")
LAYERS = ("cli", "scenarios", "io", "propagation", "states", "foundation",
          "observables", "dispersion", "kernels")
ALIASES = {
    "states.gaussian_packet": "states.construct",
    "states.superposition": "states.construct",
    "foundation.forward_transform": "foundation.transform",
    "foundation.inverse_transform": "foundation.transform",
}
# Targets the per-layer metrics name. A missing one is reported as absent
# and its metrics read 0; later versions may drop evolve_batch or _kernels.
NAMED = ("cli.main", "scenarios.validate_config", "scenarios.run_scenario",
         "propagation.evolve", "propagation.evolve_batch", "states.from_coefficients",
         "states.gaussian_packet", "states.superposition",
         "foundation.forward_transform", "foundation.inverse_transform",
         "observables.compute_fields", "observables.continuity_residual",
         "observables.moments", "observables.superposition_density",
         "dispersion.gamma_of_state", "kernels.pair_density")

# The catalog scenarios get their own counters (one op is one scenario run).
SCENARIOS = ("packet-continuity", "gamma-density", "amended", "branch-demo",
             "two-mode", "superposition-scan", "nonrel-limit")
SCENARIO_COUNTERS = (
    ("evolve_calls", "count"),
    ("evolve_distinct", "count"),
    ("evolve_distinct_ratio", "ratio"),
    ("transform_calls", "count"),
    ("compute_fields_calls", "count"),
    ("bytes_written", "B"),
)

PER_LAYER = (
    ("scenarios.run_scenario.self_s_per_op", "s"),
    ("scenarios.validate_config.s_per_op", "s"),
    ("io.write.s_per_op", "s"),
    ("io.bytes_per_op", "B"),
    ("cli.main.self_s_per_op", "s"),
    ("propagation.evolve.self_s_per_op", "s"),
    ("propagation.evolve.calls_per_op", "count"),
    ("propagation.evolve.distinct_ratio", "ratio"),
    ("states.from_coefficients.s_per_op", "s"),
    ("states.construct.s_per_op", "s"),
    ("foundation.transform.s_per_op", "s"),
    ("foundation.transform.calls_per_op", "count"),
    ("foundation.fft_floor_s", "s"),
    ("propagation.evolve_over_fft_floor", "ratio"),
    ("observables.compute_fields.self_s_per_op", "s"),
    ("observables.compute_fields.calls_per_op", "count"),
    ("observables.continuity_residual.s_per_op", "s"),
    ("observables.moments.s_per_op", "s"),
    ("dispersion.gamma_of_state.s_per_op", "s"),
    ("observables.superposition_density.self_s_per_op", "s"),
    ("kernels.pair_density.s_per_op", "s"),
    ("kernels.pair_terms_per_op", "count"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
    *((f"scenario.{name}.{counter}", unit)
      for name in SCENARIOS for counter, unit in SCENARIO_COUNTERS),
)


def _evolve_info(args: tuple, kwargs: dict) -> tuple:
    state = args[0] if args else kwargs["state"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    digest = hashlib.blake2b(state.coefficients.tobytes(), digest_size=16)
    digest.update(repr((state.kind.name, state.grid.n, state.grid.length,
                        state.units, state.time, float(t))).encode())
    return digest.digest(), state.grid.n


def _pair_terms(args: tuple, kwargs: dict) -> int:
    m, n = len(args[0]), len(args[3])
    return n * m * (m - 1) // 2


def _written_bytes(args: tuple, kwargs: dict) -> int:
    return args[0].stat().st_size


INFO: dict[str, Callable[[tuple, dict], Any]] = {
    "propagation.evolve": _evolve_info,
    "kernels.pair_density": _pair_terms,
    "io.write": _written_bytes,
}


class Tracer:
    """Wraps kg_lab's public functions and records spans while an op is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: dict[int, str] = {}
        self.op: Optional[int] = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def begin_op(self, op_id: int, label: str) -> None:
        self.ops[op_id] = label
        self.op = op_id

    def end_op(self) -> None:
        self.op = None

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer, spans, stack, info = self, self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if info is not None and not span[5]:
                    span[6] = info(args, kwargs)

        return traced

    def _rebind(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions of every loaded kg_lab submodule."""
        for short in MODULES:
            try:
                importlib.import_module(f"kg_lab.{short}")
            except ImportError:
                continue
        holders = {name: module for name, module in sorted(sys.modules.items())
                   if name == "kg_lab" or name.startswith("kg_lab.")}
        wrapped = set()
        for name, module in holders.items():
            if name == "kg_lab":
                continue
            layer = name.split(".", 1)[1].lstrip("_")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                full = f"{layer}.{attr}"
                wrapper = self._wrap(fn, ALIASES.get(full, full))
                wrapped.add(full)
                for holder in holders.values():
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._rebind(holder, key, wrapper)
        for method in ("write_bytes", "write_text"):
            self._rebind(pathlib.Path, method,
                         self._wrap(getattr(pathlib.Path, method), "io.write"))
        self.absent = [name for name in NAMED if name not in wrapped]

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def write_spans(self, path: pathlib.Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op, failed, _ in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "failed": failed}) + "\n")


def summarize(tracer: Tracer) -> dict[str, Any]:
    """Aggregate spans into per-name totals, per-label counters and evolve sizes."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
    labels: dict[str, Counter] = defaultdict(Counter)
    evolve_keys: dict[int, set] = defaultdict(set)
    evolve_sizes: Counter = Counter()
    pair_terms = 0
    for i, (name, start, end, parent, op, failed, info) in enumerate(spans):
        row = names[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["errors"] += int(failed)
        counts = labels[tracer.ops[op]]
        if name == "propagation.evolve":
            counts["evolve_calls"] += 1
            if info is not None:
                evolve_keys[op].add(info[0])
                evolve_sizes[info[1]] += 1
        elif name == "foundation.transform":
            counts["transform_calls"] += 1
        elif name == "observables.compute_fields":
            counts["compute_fields_calls"] += 1
        elif name == "io.write" and info is not None:
            counts["bytes_written"] += info
        elif name == "kernels.pair_density" and info is not None:
            pair_terms += info
    for op, keys in evolve_keys.items():
        labels[tracer.ops[op]]["evolve_distinct"] += len(keys)
    for op, label in tracer.ops.items():
        labels[label]["ops"] += 1
    return {"names": dict(names), "labels": dict(labels),
            "evolve_sizes": dict(evolve_sizes), "pair_terms": pair_terms}


def per_layer_metrics(summary: dict[str, Any], fft_floor: dict[int, float],
                      overhead_ratio: float, error_rate: float) -> dict[str, float]:
    """The per-layer metrics of PER_LAYER from one traced phase's summary."""
    names, labels = summary["names"], summary["labels"]
    ops = sum(counts["ops"] for counts in labels.values())
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}

    def per_op(name: str, key: str) -> float:
        return names.get(name, zero)[key] / ops

    totals = Counter()
    for counts in labels.values():
        totals.update(counts)
    evolve_calls = names.get("propagation.evolve", zero)["calls"]
    sizes = summary["evolve_sizes"]
    floor_total = sum(fft_floor[n] * calls for n, calls in sizes.items())
    metrics = {
        "scenarios.run_scenario.self_s_per_op": per_op("scenarios.run_scenario", "self_s"),
        "scenarios.validate_config.s_per_op": per_op("scenarios.validate_config", "total_s"),
        "io.write.s_per_op": per_op("io.write", "total_s"),
        "io.bytes_per_op": totals["bytes_written"] / ops,
        "cli.main.self_s_per_op": per_op("cli.main", "self_s"),
        "propagation.evolve.self_s_per_op": per_op("propagation.evolve", "self_s"),
        "propagation.evolve.calls_per_op": evolve_calls / ops,
        "propagation.evolve.distinct_ratio":
            totals["evolve_distinct"] / evolve_calls if evolve_calls else 0.0,
        "states.from_coefficients.s_per_op": per_op("states.from_coefficients", "total_s"),
        "states.construct.s_per_op": per_op("states.construct", "total_s"),
        "foundation.transform.s_per_op": per_op("foundation.transform", "total_s"),
        "foundation.transform.calls_per_op": per_op("foundation.transform", "calls"),
        "foundation.fft_floor_s": floor_total / evolve_calls if evolve_calls else 0.0,
        "propagation.evolve_over_fft_floor":
            names.get("propagation.evolve", zero)["total_s"] / floor_total if floor_total else 0.0,
        "observables.compute_fields.self_s_per_op": per_op("observables.compute_fields", "self_s"),
        "observables.compute_fields.calls_per_op": per_op("observables.compute_fields", "calls"),
        "observables.continuity_residual.s_per_op":
            per_op("observables.continuity_residual", "total_s"),
        "observables.moments.s_per_op": per_op("observables.moments", "total_s"),
        "dispersion.gamma_of_state.s_per_op": per_op("dispersion.gamma_of_state", "total_s"),
        "observables.superposition_density.self_s_per_op":
            per_op("observables.superposition_density", "self_s"),
        "kernels.pair_density.s_per_op": per_op("kernels.pair_density", "total_s"),
        "kernels.pair_terms_per_op": summary["pair_terms"] / ops,
        "trace.overhead_ratio": overhead_ratio,
        "error_rate": error_rate,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(
            row["errors"] for name, row in names.items() if name.split(".")[0] == layer)
    for scenario in SCENARIOS:
        counts = labels.get(scenario, Counter())
        runs = counts["ops"] or 1
        for counter, _ in SCENARIO_COUNTERS:
            if counter == "evolve_distinct_ratio":
                value = (counts["evolve_distinct"] / counts["evolve_calls"]
                         if counts["evolve_calls"] else 0.0)
            else:
                value = counts[counter] / runs
            metrics[f"scenario.{scenario}.{counter}"] = value
    return metrics


def self_time_tables(summary: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Self seconds per op, by span name and by layer, largest first."""
    names = summary["names"]
    ops = sum(counts["ops"] for counts in summary["labels"].values())
    by_name = {name: row["self_s"] / ops for name, row in names.items()}
    by_layer: Counter = Counter()
    for name, value in by_name.items():
        by_layer[name.split(".")[0]] += value
    return {
        "by_name": dict(sorted(by_name.items(), key=lambda kv: -kv[1])),
        "by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
    }
