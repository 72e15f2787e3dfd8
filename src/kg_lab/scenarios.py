"""Shipped scenario catalog, config validation, and deterministic output.

A scenario is a named, fully defaulted experiment; a user config is a JSON
file that names one and overrides fields. The schema is strict: a key is
legal only where the scenario's default config has one (lists replace
wholesale), unknown keys are rejected with their dotted path, and every
resolved value is echoed into the run metadata so no default is silent.
A scenario is one entry of the SCENARIOS registry: its overrides of the
shared defaults, its blurb, and its runner.

Output determinism: identical config and arguments produce byte-identical
files. Every float is written as '%.17g' would write it, except that
non-finite values are spelled NaN, Infinity and -Infinity (the negative
branch of branch-demo writes NaN columns). JSON keys are sorted, newlines
are '\n', and nothing time- or path-dependent is emitted beyond what the
config itself contains.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from .dispersion import (
    DEFAULT_GAMMA_SPREAD_TOL,
    DispersionKind,
    gamma_of_state,
    group_velocity,
    omega,
    unphysical_negative_branch,
)
from .errors import BandwidthError, ConfigError
from .foundation import Grid1D, UnitSystem, make_grid, state_norm
from .observables import (
    DensityCurrentFields,
    SuperpositionDensity,
    TwoModeSpec,
    compute_fields,
    continuity_residual,
    moments,
    superposition_density,
    two_mode_min_density,
)
from .propagation import evolve
from .states import ModeSet, PacketSpec, SpectralState, gaussian_packet, rest_phase_strip, superposition

FIELD_COLUMNS = ("t", "x", "re_psi", "im_psi", "rho_nonrel", "rho_kg",
                 "rho_amended", "j_std", "j_amended")
SUMMARY_COLUMNS = ("t", "norm", "centroid", "variance", "gamma_bar", "gamma_spread",
                   "continuity_residual", "min_rho_kg", "argmin_x")


def _normalized(raw: list[complex]) -> list[complex]:
    scale = math.sqrt(sum(abs(a) ** 2 for a in raw))
    return [a / scale for a in raw]


_SCAN_AMPLITUDES = _normalized([1.0, 0.8 + 0.3j, 0.6, 0.45 - 0.15j, 0.35, 0.25 + 0.1j])
_SCAN_INDICES = [5, 12, 21, 34, 55, 89]

# Every scenario's config is this block with its own overrides of whole
# top-level entries laid over it (see SCENARIOS).
_SHARED_DEFAULTS: dict[str, Any] = {
    "grid": {"n": 4096, "length": 400.0},
    "units": {"hbar": 1.0, "c": 1.0, "m": 4.0},
    "state": {"packet": {"x0": 0.0, "k0": 3.0, "sigma": 20.0}},
    "times": [0.0],
    "dt_continuity": 1e-3,
    "gamma_spread_tol": DEFAULT_GAMMA_SPREAD_TOL,
    "format": "csv",
    "output": "kg-lab-out",
}


# ---------------------------------------------------------------------------
# validation

_MODE_ENTRY_KEYS = {"amplitude_re", "amplitude_im", "index", "k"}


def _require_number(value: Any, path: str, *, integer: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if integer and not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return value


# Paths whose user value replaces the default wholesale instead of merging
# key by key: a mode selector is index XOR k, so a user 'k' must not inherit
# the default 'index'.
_REPLACE_PATHS = {"state.mode"}


def _merge_strict(default: Any, user: Any, path: str) -> Any:
    """Overlay user config onto the scenario default, rejecting unknown keys."""
    if path in _REPLACE_PATHS:
        return copy.deepcopy(user)
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        unknown = set(user) - set(default)
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
        merged = {}
        for key, dval in default.items():
            if key in user:
                merged[key] = _merge_strict(dval, user[key], f"{path + '.' if path else ''}{key}")
            else:
                merged[key] = copy.deepcopy(dval)
        return merged
    if isinstance(default, list):
        if not isinstance(user, list):
            raise ConfigError(f"{path}: expected a list")
        return copy.deepcopy(user)
    if isinstance(default, str):
        if not isinstance(user, str):
            raise ConfigError(f"{path}: expected a string")
        return user
    return _require_number(user, path, integer=isinstance(default, int) and not isinstance(default, bool))


def _validate_mode_entry(entry: Any, path: str) -> dict[str, Any]:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(entry) - _MODE_ENTRY_KEYS
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    if ("index" in entry) == ("k" in entry):
        raise ConfigError(f"{path}: give exactly one of 'index' or 'k'")
    out = {
        "amplitude_re": float(_require_number(entry.get("amplitude_re", 0.0), f"{path}.amplitude_re")),
        "amplitude_im": float(_require_number(entry.get("amplitude_im", 0.0), f"{path}.amplitude_im")),
    }
    if "index" in entry:
        out["index"] = int(_require_number(entry["index"], f"{path}.index", integer=True))
    else:
        out["k"] = float(_require_number(entry["k"], f"{path}.k"))
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved, validated scenario run."""

    scenario: str
    resolved: dict[str, Any]
    grid: Grid1D
    units: UnitSystem
    times: tuple[float, ...]
    dt_continuity: float
    gamma_spread_tol: float
    fmt: str
    output: str
    packet: Optional[PacketSpec] = None
    modes: Optional[ModeSet] = None
    mode_index: Optional[int] = None
    two_mode: Optional[dict[str, float]] = None
    strip_time: Optional[float] = None
    c_factor: Optional[float] = None


def _lattice_k(grid: Grid1D, index: int, path: str) -> float:
    half = grid.n // 2
    if not -half < index < half:
        raise BandwidthError(
            f"{path}: mode index {index} outside the open lattice range ({-half}, {half})"
        )
    return 2.0 * math.pi * index / grid.length


def _two_mode_k(grid: Grid1D, units: UnitSystem, w: float, path: str) -> float:
    """The lattice wavenumber nearest the positive-branch k of frequency w."""
    rest = units.rest_omega
    # k = sqrt(w^2 - rest^2) / c, factored so that no square can overflow.
    k = math.sqrt(max(0.0, w - rest)) * math.sqrt(w + rest) / units.c
    position = k * grid.length / (2.0 * math.pi)
    half = grid.n // 2
    if not position < half:
        raise BandwidthError(
            f"{path}: wavenumber {k!r} lies at or beyond the Nyquist wavenumber "
            f"{2.0 * math.pi * half / grid.length!r}"
        )
    return _lattice_k(grid, int(round(position)), path)


def validate_config(text: str, *, output_override: Optional[str] = None,
                    format_override: Optional[str] = None) -> ScenarioConfig:
    """Parse and validate a JSON scenario config into a ScenarioConfig.

    Schema violations raise ConfigError (with line/column for parse errors
    and dotted paths for field errors); support and bandwidth violations
    raise BandwidthError.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a top-level object")
    name = raw.get("scenario")
    if not isinstance(name, str):
        raise ConfigError("scenario: required string field")
    resolved = _merge_strict(default_config(name), raw, "")
    if output_override is not None:
        resolved["output"] = output_override
    if format_override is not None:
        resolved["format"] = format_override

    if resolved["format"] not in ("csv", "json"):
        raise ConfigError(f"format: expected 'csv' or 'json', got {resolved['format']!r}")
    if not resolved["output"]:
        raise ConfigError("output: must be a non-empty path")

    gcfg, ucfg = resolved["grid"], resolved["units"]
    try:
        grid = make_grid(int(gcfg["n"]), float(gcfg["length"]))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    try:
        units = UnitSystem(hbar=ucfg["hbar"], c=ucfg["c"], m=ucfg["m"])
    except ValueError as exc:
        raise ConfigError(f"units: {exc}") from exc

    times = resolved["times"]
    if not times:
        raise ConfigError("times: must list at least one sample time")
    times = tuple(float(_require_number(t, f"times[{i}]")) for i, t in enumerate(times))
    dt = float(_require_number(resolved["dt_continuity"], "dt_continuity"))
    if dt <= 0:
        raise ConfigError(f"dt_continuity: must be positive, got {dt}")
    spread_tol = float(_require_number(resolved["gamma_spread_tol"], "gamma_spread_tol"))
    if spread_tol <= 0:
        raise ConfigError(f"gamma_spread_tol: must be positive, got {spread_tol}")

    kwargs: dict[str, Any] = {}
    state = resolved["state"]
    if "packet" in state:
        p = state["packet"]
        try:
            packet = PacketSpec(x0=float(p["x0"]), k0=float(p["k0"]), sigma=float(p["sigma"]))
        except ValueError as exc:
            raise ConfigError(f"state.packet: {exc}") from exc
        # Build the state run will build, so that validate raises the same
        # support or Nyquist BandwidthError that run would.
        gaussian_packet(packet, grid, units, DispersionKind.KLEIN_GORDON_POSITIVE)
        kwargs["packet"] = packet
    elif "modes" in state:
        entries = [_validate_mode_entry(e, f"state.modes[{i}]") for i, e in enumerate(state["modes"])]
        resolved["state"]["modes"] = entries
        pairs = []
        for i, entry in enumerate(entries):
            amp = complex(entry["amplitude_re"], entry["amplitude_im"])
            if "index" in entry:
                k = _lattice_k(grid, entry["index"], f"state.modes[{i}]")
            else:
                k = entry["k"]
                grid.wavenumber_index(k)  # off-lattice -> BandwidthError
            pairs.append((amp, k))
        try:
            kwargs["modes"] = ModeSet(pairs)
        except ValueError as exc:
            raise ConfigError(f"state.modes: {exc}") from exc
    elif "mode" in state:
        entry = state["mode"]
        if not isinstance(entry, dict):
            raise ConfigError("state.mode: expected an object")
        unknown = set(entry) - {"index", "k"}
        if unknown:
            raise ConfigError(f"state.mode.{sorted(unknown)[0]}: unknown key")
        if ("index" in entry) == ("k" in entry):
            raise ConfigError("state.mode: give exactly one of 'index' or 'k'")
        if "index" in entry:
            idx = int(_require_number(entry["index"], "state.mode.index", integer=True))
            _lattice_k(grid, idx, "state.mode")
        else:
            k = float(_require_number(entry["k"], "state.mode.k"))
            pos = grid.wavenumber_index(k)
            idx = pos if pos < grid.n // 2 else pos - grid.n
        kwargs["mode_index"] = idx
    elif "two_mode" in state:
        tm = state["two_mode"]
        for key in ("a1_sq", "a2_sq", "omega1", "omega2"):
            _require_number(tm.get(key), f"state.two_mode.{key}")
        if tm["a1_sq"] <= 0 or tm["a2_sq"] <= 0:
            raise ConfigError("state.two_mode: amplitude weights must be positive")
        if abs(tm["a1_sq"] + tm["a2_sq"] - 1.0) > 1e-10:
            raise ConfigError(
                "state.two_mode: weights must satisfy a1_sq + a2_sq = 1 (unitarity), "
                f"got {tm['a1_sq'] + tm['a2_sq']}"
            )
        cutoff = units.rest_omega * (1.0 - 1e-12)
        if tm["omega1"] < cutoff or tm["omega2"] < cutoff:
            raise ConfigError("state.two_mode: frequencies must lie on or above the rest frequency")
        k1, k2 = (_two_mode_k(grid, units, float(tm[w]), f"state.two_mode.{w}")
                  for w in ("omega1", "omega2"))
        if k1 == k2:
            raise BandwidthError("state.two_mode: frequencies resolve to the same lattice mode")
        kwargs["two_mode"] = {**{k: float(v) for k, v in tm.items()}, "k1": k1, "k2": k2}
    else:  # pragma: no cover - catalog defaults always carry a state block
        raise ConfigError("state: missing state specification")

    if "strip_time" in resolved:
        kwargs["strip_time"] = float(_require_number(resolved["strip_time"], "strip_time"))
    if "c_factor" in resolved:
        factor = float(_require_number(resolved["c_factor"], "c_factor"))
        if factor <= 1.0:
            raise ConfigError(f"c_factor: must exceed 1, got {factor}")
        try:  # the unit system the run builds with c raised by the factor
            UnitSystem(hbar=units.hbar, c=units.c * factor, m=units.m)
        except ValueError as exc:
            raise ConfigError(f"c_factor: {exc}") from exc
        kwargs["c_factor"] = factor

    return ScenarioConfig(
        scenario=name, resolved=resolved, grid=grid, units=units, times=times,
        dt_continuity=dt, gamma_spread_tol=spread_tol,
        fmt=resolved["format"], output=resolved["output"], **kwargs,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _format_floats(template: str, values: Any) -> str:
    """Fill a template of '%.17g' slots with values in one %-operation.

    '%' writes non-finite values as nan, inf and -inf (never -nan); they are
    respelled NaN, Infinity and -Infinity here. No finite '%.17g' string
    contains those letters, so the rewrite cannot touch a number.
    """
    return (template % tuple(values)).replace("nan", "NaN").replace("inf", "Infinity")


def _fmt(x: float) -> str:
    return _format_floats("%.17g", (x,))


def _dumps(obj: Any, indent: int = 0) -> str:
    """JSON with sorted keys and 17-significant-digit floats.

    A 1-D float ndarray is written like a list of floats.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        return "[" + _format_floats(("%.17g, " * obj.size)[:-2], obj.tolist()) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{inner}{json.dumps(str(key))}: {_dumps(value, indent + 1)}"
            for key, value in sorted(obj.items())
        )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_fmt(v) if isinstance(v, float) else str(v) for v in seq) + "]"
        items = (f"{inner}{_dumps(value, indent + 1)}" for value in seq)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_text(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# running

@dataclass(frozen=True)
class ObservableSeries:
    """Per-time summary records and field blocks for one evolved state."""

    summary: list[dict[str, float]]
    field_blocks: list[dict[str, Any]]


@dataclass(frozen=True)
class RunResult:
    scenario: str
    files: list[Path]
    results: dict[str, Any]
    derived: dict[str, Any]
    series: dict[str, ObservableSeries]


@dataclass(frozen=True, eq=False)
class _Sample:
    """One sample time: the fields of the evolved state and those at t -/+ dt."""

    t: float
    fields: DensityCurrentFields
    before: DensityCurrentFields
    after: DensityCurrentFields


def _series_for(state: SpectralState,
                config: ScenarioConfig) -> tuple[ObservableSeries, list[_Sample]]:
    """Evolve to each sample time and collect summary rows and field blocks.

    Each sample's fields at t and t -/+ dt are returned too, so that runners
    read them rather than evolving again. Moments are taken on the
    conserved density for the positive branch and on psi*psi otherwise (the
    conserved density need not be a positive measure off the physical
    branch).
    """
    grid, dt = config.grid, config.dt_continuity
    rho_pair_name = "rho_kg" if state.kind is not DispersionKind.SCHRODINGER else "rho_nonrel"
    summary, blocks, samples = [], [], []
    for t in config.times:
        result = evolve(state, t)
        fields = compute_fields(result, spread_tol=config.gamma_spread_tol)
        before = compute_fields(evolve(state, t - dt))
        after = compute_fields(evolve(state, t + dt))
        residual = continuity_residual(getattr(before, rho_pair_name),
                                       getattr(after, rho_pair_name), fields.j_std, dt, grid)
        mom_rho = fields.rho_kg if state.kind is DispersionKind.KLEIN_GORDON_POSITIVE \
            else fields.rho_nonrel
        mom = moments(mom_rho, grid)
        imin = int(np.argmin(fields.rho_kg))
        summary.append({
            "t": t,
            "norm": state_norm(grid, result.state.values),
            "centroid": mom.centroid,
            "variance": mom.variance,
            "gamma_bar": fields.gamma_bar,
            "gamma_spread": fields.gamma_spread,
            "continuity_residual": residual,
            "min_rho_kg": float(fields.rho_kg[imin]),
            "argmin_x": float(grid.points[imin]),
        })
        blocks.append({
            "t": t,
            "re_psi": result.state.values.real,
            "im_psi": result.state.values.imag,
            "rho_nonrel": fields.rho_nonrel,
            "rho_kg": fields.rho_kg,
            "rho_amended": fields.rho_amended,
            "j_std": fields.j_std,
            "j_amended": fields.j_amended,
        })
        samples.append(_Sample(t, fields, before, after))
    return ObservableSeries(summary=summary, field_blocks=blocks), samples


def _fields_csv(grid: Grid1D, blocks: list[dict[str, Any]]) -> str:
    chunks = [",".join(FIELD_COLUMNS) + "\n"]
    row = ",%.17g" * (len(FIELD_COLUMNS) - 1) + "\n"
    for block in blocks:
        table = np.column_stack([grid.points] + [block[name] for name in FIELD_COLUMNS[2:]])
        chunks.append(_format_floats((_fmt(block["t"]) + row) * grid.n, table.ravel().tolist()))
    return "".join(chunks)


def _summary_csv(rows: list[dict[str, float]]) -> str:
    row = ",".join(["%.17g"] * len(SUMMARY_COLUMNS)) + "\n"
    values = [r[name] for r in rows for name in SUMMARY_COLUMNS]
    return ",".join(SUMMARY_COLUMNS) + "\n" + _format_floats(row * len(rows), values)


def _fields_json(grid: Grid1D, blocks: list[dict[str, Any]]) -> str:
    payload = [
        {"t": block["t"], "x": grid.points, **{name: block[name] for name in FIELD_COLUMNS[2:]}}
        for block in blocks
    ]
    return _dumps({"fields": payload}) + "\n"


def _summary_json(rows: list[dict[str, float]]) -> str:
    return _dumps({"summary": rows}) + "\n"


def _write_series(out: Path, stem: str, grid: Grid1D, series: ObservableSeries,
                  fmt: str) -> list[Path]:
    fields_text, summary_text = (_fields_csv, _summary_csv) if fmt == "csv" \
        else (_fields_json, _summary_json)
    fields_path, summary_path = out / f"{stem}_fields.{fmt}", out / f"{stem}_summary.{fmt}"
    _write_text(fields_path, fields_text(grid, series.field_blocks))
    _write_text(summary_path, summary_text(series.summary))
    return [fields_path, summary_path]


_KG_PLUS = DispersionKind.KLEIN_GORDON_POSITIVE

# What a runner returns: the series to write (keyed "main", or by branch
# label, in file order), its entries of the run's "derived" block, and its
# "results" block.
_RunnerOutput = tuple[dict[str, ObservableSeries], dict[str, Any], dict[str, Any]]


def _packet_state(config: ScenarioConfig, kind: DispersionKind,
                  units: Optional[UnitSystem] = None) -> SpectralState:
    return gaussian_packet(config.packet, config.grid, units or config.units, kind)


def _main_series(state: SpectralState, config: ScenarioConfig
                 ) -> tuple[dict[str, ObservableSeries], dict[str, Any], list[_Sample]]:
    """The frame of a one-state scenario: its series, gamma statistics and samples."""
    main, samples = _series_for(state, config)
    stats = gamma_of_state(state)
    derived = {
        "gamma_bar": stats.gamma_bar,
        "gamma_spread": stats.gamma_spread,
        "gamma_spread_flag": stats.relative_spread > config.gamma_spread_tol,
    }
    return {"main": main}, derived, samples


def _grid_scan(modes: ModeSet, config: ScenarioConfig
               ) -> tuple[dict[str, Any], list[SuperpositionDensity]]:
    """Amplitude-space density at each sample time: its minima, and the densities."""
    densities = [superposition_density(modes, t, config.grid, config.units)
                 for t in config.times]
    return {
        "grid_scan": [{"t": t, "min_density": sd.minimum, "argmin_x": sd.argmin_x}
                      for t, sd in zip(config.times, densities)],
        "min_density": min(sd.minimum for sd in densities),
    }, densities


def _run_packet_continuity(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, samples = _main_series(_packet_state(config, _KG_PLUS), config)
    derived["group_velocity_carrier"] = group_velocity(_KG_PLUS, config.packet.k0, config.units)
    dt, grid = config.dt_continuity, config.grid
    rows = [{
        "t": s.t,
        "residual_conserved": continuity_residual(
            s.before.rho_kg, s.after.rho_kg, s.fields.j_std, dt, grid),
        "residual_amended": continuity_residual(
            s.before.rho_amended, s.after.rho_amended, s.fields.j_amended, dt, grid),
    } for s in samples]
    return series, derived, {
        "continuity": rows,
        "max_residual_conserved": max(r["residual_conserved"] for r in rows),
        "max_residual_amended": max(r["residual_amended"] for r in rows),
    }


def _run_gamma_density(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, samples = _main_series(_packet_state(config, _KG_PLUS), config)
    deviations = []
    for s in samples:
        rho_nonrel = s.fields.rho_nonrel
        mask = rho_nonrel >= 1e-3 * rho_nonrel.max()
        rel = np.abs(s.fields.rho_kg[mask] / (derived["gamma_bar"] * rho_nonrel[mask]) - 1.0)
        deviations.append({"t": s.t, "max_rel_deviation": float(rel.max())})
    return series, derived, {"density_vs_gamma": deviations, "mask_threshold": 1e-3}


def _run_amended(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, samples = _main_series(_packet_state(config, _KG_PLUS), config)
    vg = group_velocity(_KG_PLUS, config.packet.k0, config.units)
    derived["group_velocity_carrier"] = vg
    rows = []
    for s in samples:
        fields = s.fields
        gap = np.linalg.norm(fields.rho_amended - fields.rho_nonrel)
        ref = np.linalg.norm(fields.rho_nonrel)
        peak = int(np.argmax(fields.rho_amended))
        velocity = fields.j_amended[peak] / fields.rho_amended[peak]
        rows.append({
            "t": s.t,
            "l2_ratio_to_nonrel": float(gap / ref),
            "peak_velocity_ratio": float(velocity / vg),
        })
    return series, derived, {"amended_reduction": rows}


def _run_branch_demo(config: ScenarioConfig) -> _RunnerOutput:
    k = _lattice_k(config.grid, config.mode_index, "state.mode")
    mode = ModeSet([(1.0, k)])
    series, branches = {}, {}
    for label, kind in (("positive", _KG_PLUS), ("negative", unphysical_negative_branch())):
        state = superposition(mode, config.grid, config.units, kind)
        series[label], samples = _series_for(state, config)
        branches[label] = {"density_ratio_mean": [
            float(np.mean(s.fields.rho_kg / s.fields.rho_nonrel)) for s in samples]}
    return series, {}, {
        "branches": branches,
        "mode_k": k,
        "mode_omega": omega(_KG_PLUS, k, config.units),
    }


def _run_two_mode(config: ScenarioConfig) -> _RunnerOutput:
    tm, units = config.two_mode, config.units
    spec = TwoModeSpec(a1=math.sqrt(tm["a1_sq"]), a2=math.sqrt(tm["a2_sq"]),
                       omega1=tm["omega1"], omega2=tm["omega2"])
    results: dict[str, Any] = {"analytic_min": two_mode_min_density(spec, units)}
    k1, k2 = tm["k1"], tm["k2"]
    mode_set = ModeSet([(spec.a1, k1), (spec.a2, k2)])
    series, derived, _ = _main_series(superposition(mode_set, config.grid, units, _KG_PLUS),
                                      config)
    results["realized_lattice"] = {
        "k1": k1, "k2": k2,
        "omega1": omega(_KG_PLUS, k1, units), "omega2": omega(_KG_PLUS, k2, units),
    }
    results.update(_grid_scan(mode_set, config)[0])
    return series, derived, results


def _run_superposition_scan(config: ScenarioConfig) -> _RunnerOutput:
    state = superposition(config.modes, config.grid, config.units, _KG_PLUS)
    series, derived, samples = _main_series(state, config)
    results, densities = _grid_scan(config.modes, config)
    results["amplitude_vs_state_max_diff"] = max(
        float(np.max(np.abs(sd.rho - s.fields.rho_kg))) for sd, s in zip(densities, samples))
    return series, derived, results


def _run_nonrel_limit(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, _ = _main_series(_packet_state(config, _KG_PLUS), config)
    gaps = {}
    for label, factor in (("base", 1.0), ("doubled", config.c_factor)):
        units = UnitSystem(hbar=config.units.hbar, c=config.units.c * factor,
                           m=config.units.m)
        kg_t = rest_phase_strip(evolve(_packet_state(config, _KG_PLUS, units),
                                       config.strip_time).state)
        sch_t = evolve(_packet_state(config, DispersionKind.SCHRODINGER, units),
                       config.strip_time).state
        gap = np.linalg.norm(kg_t.values - sch_t.values) * math.sqrt(config.grid.dx)
        gaps[label] = {"c": units.c, "l2_gap": float(gap)}
    return series, derived, {
        "gaps": gaps,
        "gap_ratio": gaps["base"]["l2_gap"] / gaps["doubled"]["l2_gap"],
        "strip_time": config.strip_time,
    }


@dataclass(frozen=True)
class Scenario:
    """One catalog entry: overrides of the shared defaults, a blurb, a runner."""

    overrides: dict[str, Any]
    blurb: str
    run: Callable[[ScenarioConfig], _RunnerOutput]


SCENARIOS: dict[str, Scenario] = {
    "packet-continuity": Scenario(
        {"state": {"packet": {"x0": 0.0, "k0": 3.0, "sigma": 10.0}},
         "times": [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]},
        "Gaussian packet; continuity residual for the conserved and amended pairs over time",
        _run_packet_continuity),
    "gamma-density": Scenario(
        {},
        "broad packet; pointwise comparison of the conserved density against gamma_bar * psi*psi",
        _run_gamma_density),
    "amended": Scenario(
        {},
        "broad packet; amended fields reduce to psi*psi and the carrier group velocity",
        _run_amended),
    "branch-demo": Scenario(
        {"grid": {"n": 512, "length": 2.0 * math.pi * 64.0 / 3.0},
         "state": {"mode": {"index": 64}}},
        "plane wave on both frequency branches; the conserved density flips sign on the negative one",
        _run_branch_demo),
    "two-mode": Scenario(
        {"units": {"hbar": 1.0, "c": 1.0, "m": 1.0},
         "state": {"two_mode": {"a1_sq": 0.9, "a2_sq": 0.1, "omega1": 1.0, "omega2": 5.0}},
         # beats at omega2 - omega1 need a finer centered difference than packets
         "dt_continuity": 1e-5},
        "two-mode interference; closed-form phase minimum and a realized negative grid density",
        _run_two_mode),
    "superposition-scan": Scenario(
        {"grid": {"n": 1024, "length": 400.0},
         "units": {"hbar": 1.0, "c": 1.0, "m": 1.0},
         "state": {"modes": [
             {"amplitude_re": a.real, "amplitude_im": a.imag, "index": j}
             for a, j in zip(_SCAN_AMPLITUDES, _SCAN_INDICES)
         ]},
         "times": [0.0, 2.5, 5.0],
         "dt_continuity": 1e-4},
        "multi-mode superposition; amplitude-space density scan cross-checked against the state density",
        _run_superposition_scan),
    "nonrel-limit": Scenario(
        {"units": {"hbar": 1.0, "c": 10.0, "m": 1.0},
         "state": {"packet": {"x0": 0.0, "k0": 0.0, "sigma": 20.0}},
         "times": [5.0],
         "strip_time": 5.0,
         "c_factor": 2.0},
        "rest-phase-stripped packet against its Schrodinger twin; the gap falls quadratically in 1/c",
        _run_nonrel_limit),
}


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def default_config(name: str) -> dict[str, Any]:
    """The scenario's full default config: the shared block with its overrides laid over it."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    return copy.deepcopy({"scenario": name, **_SHARED_DEFAULTS, **SCENARIOS[name].overrides})


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute one scenario and write its outputs; returns what was written."""
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    derived: dict[str, Any] = {"dt_continuity": config.dt_continuity}
    series, scenario_derived, results = SCENARIOS[config.scenario].run(config)
    derived.update(scenario_derived)
    files: list[Path] = []
    for label, ser in series.items():
        stem = config.scenario if label == "main" else f"{config.scenario}_{label}"
        files += _write_series(out, stem, config.grid, ser, config.fmt)

    metadata = {
        "scenario": config.scenario,
        "version": __version__,
        "config": config.resolved,
        "derived": derived,
        "results": results,
    }
    meta_path = out / f"{config.scenario}_run.json"
    _write_text(meta_path, _dumps(metadata) + "\n")
    files.append(meta_path)
    return RunResult(scenario=config.scenario, files=files, results=results,
                     derived=derived, series=series)
