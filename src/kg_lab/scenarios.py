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
branch of branch-demo writes a NaN gamma_bar and gamma_spread). JSON keys
are sorted, newlines are '\n', and nothing time- or path-dependent is
emitted beyond what the config itself contains.

Each evolved state's observables are two float64 tables:
run_scenario(config).series[label] holds .fields, of shape
(len(times), n, len(FIELD_COLUMNS)), and .summary, of shape
(len(times), len(SUMMARY_COLUMNS)), with columns in FIELD_COLUMNS and
SUMMARY_COLUMNS order. CSV writes every row of a table as one line (_csv);
JSON writes one record per sample time (_json).

Float arrays (the fields and summary tables, and the arrays in JSON) are
formatted by _floattext.format_rows: their digits are decided exactly in
numpy from a double-double product, and a value too close to a rounding
tie for that product to decide takes its digits from '%' instead, so the
bytes are '%.17g''s either way. Python scalars are formatted by '%' (_fmt).
Every output file is written chunk by chunk as it is formatted (_write_file),
so no file's text is held whole.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from ._floattext import format_rows
from .dispersion import (DispersionKind, _below_rest_frequency, gamma_of_state, group_velocity,
                         omega, unphysical_negative_branch)
from .errors import BandwidthError, ConfigError
from .foundation import Grid1D, UnitSystem, _finite, make_grid, state_norm
from .observables import (
    DensityCurrentFields,
    SuperpositionDensity,
    TwoModeSpec,
    compute_fields,
    continuity_exact,
    moments,
    superposition_density,
    two_mode_min_density,
)
from .propagation import evolve
from .states import (ModeSet, PacketSpec, SpectralState, from_coefficients, gaussian_packet,
                     superposition)

_KG_PLUS = DispersionKind.KLEIN_GORDON_POSITIVE

# The fields tables leave out the fields that rebuild bit for bit from the
# written text: rho_nonrel is re_psi^2 + im_psi^2, and rho_amended and
# j_amended are rho_kg and j_std over the summary row's gamma_bar.
FIELD_COLUMNS = ("t", "x", "re_psi", "im_psi", "rho_kg", "j_std")
SUMMARY_COLUMNS = ("t", "norm", "centroid", "variance", "gamma_bar", "gamma_spread",
                   "continuity_exact", "min_rho_kg", "argmin_x")


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
    # Relative gamma spread above which the run's derived.gamma_spread_flag
    # warns that the amended observables are suspect: the single-gamma
    # replacement m -> gamma*m is only as good as the packet is monochromatic.
    "gamma_spread_tol": 0.01,
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
    if not _finite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return value


# No scenario's schema nests deeper than 5 levels (config, state, modes, a
# mode entry, its number). A config nested far deeper is rejected before
# the recursive merge, or the repr in an error message, can exhaust the
# interpreter's stack on it.
_MAX_DEPTH = 16


def _depth(value: Any) -> int:
    """Levels of nesting in a parsed JSON value (a scalar is 1), found level by level."""
    depth, level = 0, [value]
    while level:
        depth += 1
        level = [item for node in level if isinstance(node, (dict, list))
                 for item in (node.values() if isinstance(node, dict) else node)]
    return depth


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


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved, validated scenario run, with the positive-branch
    initial state it names and the spec that state was built from (modes
    for every mode form, state.mode as a one-mode set). nonrel-limit's
    doubled_units is its unit system with c raised by c_factor."""

    scenario: str
    resolved: dict[str, Any]
    grid: Grid1D
    units: UnitSystem
    times: tuple[float, ...]
    gamma_spread_tol: float
    fmt: str
    output: str
    state: SpectralState
    packet: Optional[PacketSpec] = None
    modes: Optional[ModeSet] = None
    two_mode: Optional[TwoModeSpec] = None
    doubled_units: Optional[UnitSystem] = None


def _lattice_k(grid: Grid1D, index: int, path: str) -> float:
    half = grid.n // 2
    if not -half < index < half:
        raise BandwidthError(
            f"{path}: mode index {index} outside the open lattice range ({-half}, {half})"
        )
    return float(grid.wavenumbers[index])


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


def _mode_entry(entry: Any, path: str, keys: set[str],
                grid: Grid1D) -> tuple[dict[str, Any], float]:
    """Check one mode entry: the entry with its amplitudes defaulted, and the
    grid's lattice wavenumber that its index or its k names."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(entry) - keys
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    if ("index" in entry) == ("k" in entry):
        raise ConfigError(f"{path}: give exactly one of 'index' or 'k'")
    out = {name: float(_require_number(entry.get(name, 0.0), f"{path}.{name}"))
           for name in ("amplitude_re", "amplitude_im") if name in keys}
    if "index" in entry:
        j = out["index"] = int(_require_number(entry["index"], f"{path}.index", integer=True))
        return out, _lattice_k(grid, j, path)
    k = out["k"] = float(_require_number(entry["k"], f"{path}.k"))
    try:
        j = grid.wavenumber_index(k)
    except BandwidthError as exc:  # off the lattice, or on its Nyquist mode
        raise BandwidthError(f"{path}: {exc}") from exc
    return out, float(grid.wavenumbers[j])


def _check_max_omega(kind: DispersionKind, grid: Grid1D, units: UnitSystem, reach: float,
                     path: str) -> None:
    """ConfigError unless the largest |omega| on the lattice, the Nyquist
    wavenumber's, is finite and its phase over a time reach rounds by at
    most 1e-6 rad: the double omega * t is off by up to |omega t| 2^-53.
    An overflowed phase, whose exp(-i omega t) is NaN, fails that rule too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = abs(omega(kind, float(grid.wavenumbers[grid.nyquist_index]), units))
    if not math.isfinite(w):
        raise ConfigError(f"grid: the {kind.value} frequency at the Nyquist wavenumber is {w!r} "
                          f"for c={units.c!r}; it must be finite")
    if abs(w * reach) * 2.0**-53 > 1e-6:
        raise ConfigError(f"{path}: the phase {w!r} * {reach!r} of the largest lattice "
                          "frequency rounds by more than 1e-6 rad")


def _initial_state(block: dict[str, Any], grid: Grid1D,
                   units: UnitSystem) -> dict[str, Any]:
    """The positive-branch initial state a state block names, and its spec.

    state.modes entries are written back with their defaults filled in.
    """
    if "packet" in block:
        p = block["packet"]
        try:
            packet = PacketSpec(x0=float(p["x0"]), k0=float(p["k0"]), sigma=float(p["sigma"]))
        except ValueError as exc:
            raise ConfigError(f"state.packet: {exc}") from exc
        return {"state": gaussian_packet(packet, grid, units, _KG_PLUS), "packet": packet}
    spec: dict[str, Any] = {}
    if "modes" in block:
        path = "state.modes"
        entries = [_mode_entry(e, f"{path}[{i}]", _MODE_ENTRY_KEYS, grid)
                   for i, e in enumerate(block["modes"])]
        block["modes"] = [entry for entry, _ in entries]
        pairs = [(complex(entry["amplitude_re"], entry["amplitude_im"]), k)
                 for entry, k in entries]
    elif "mode" in block:
        path = "state.mode"
        pairs = [(1.0, _mode_entry(block["mode"], path, {"index", "k"}, grid)[1])]
    else:  # a state block names exactly one form: unknown keys are rejected
        path, tm = "state.two_mode", block["two_mode"]
        if tm["a1_sq"] <= 0 or tm["a2_sq"] <= 0:
            raise ConfigError(f"{path}: amplitude weights must be positive")
        if _below_rest_frequency((tm["omega1"], tm["omega2"]), units):
            raise ConfigError(f"{path}: frequencies must lie on or above the rest frequency")
        k1, k2 = (_two_mode_k(grid, units, float(tm[w]), f"{path}.{w}")
                  for w in ("omega1", "omega2"))
        if k1 == k2:
            raise BandwidthError(f"{path}: frequencies resolve to the same lattice mode")
        a1, a2 = math.sqrt(tm["a1_sq"]), math.sqrt(tm["a2_sq"])
        pairs = [(a1, k1), (a2, k2)]
    # ModeSet rejects two entries on one lattice index, and sum |a|^2 off 1;
    # TwoModeSpec and the state check that sum again.
    try:
        modes = ModeSet(pairs)
        if "two_mode" in block:
            spec["two_mode"] = TwoModeSpec(a1=a1, a2=a2, omega1=float(tm["omega1"]),
                                           omega2=float(tm["omega2"]))
        return {"state": superposition(modes, grid, units, _KG_PLUS), "modes": modes, **spec}
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def validate_config(text: str, *, output_override: Optional[str] = None,
                    format_override: Optional[str] = None) -> ScenarioConfig:
    """Parse and validate a JSON scenario config into a ScenarioConfig.

    The initial state is built here, once, and every runner starts from it.
    Schema violations raise ConfigError (with line/column for parse errors
    and dotted paths for field errors), as do frequencies the run would
    overflow and phases it would not resolve; support and bandwidth
    violations raise BandwidthError.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("config is not valid JSON: nested too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a top-level object")
    if _depth(raw) > _MAX_DEPTH:
        raise ConfigError(f"config: nested more than {_MAX_DEPTH} levels deep")
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
    # _merge_strict has checked that each scalar is a finite number.
    spread_tol = float(resolved["gamma_spread_tol"])
    if spread_tol <= 0:
        raise ConfigError(f"gamma_spread_tol: must be positive, got {spread_tol}")

    kwargs = _initial_state(resolved["state"], grid, units)

    reach = max(abs(t) for t in times)
    if "c_factor" in resolved:
        factor = float(resolved["c_factor"])
        if factor <= 1.0:
            raise ConfigError(f"c_factor: must exceed 1, got {factor}")
        try:
            kwargs["doubled_units"] = UnitSystem(hbar=units.hbar, c=units.c * factor, m=units.m)
        except ValueError as exc:
            raise ConfigError(f"c_factor: {exc}") from exc
        # nonrel-limit reads its gaps at the sample time of largest |t|. Their
        # phase D t/2 obeys |D| <= hbar k^2/2m, the Schrodinger rate, which does
        # not depend on c: this one rule bounds it in both unit systems.
        _check_max_omega(DispersionKind.SCHRODINGER, grid, units, reach, "times")

    # Every series is evolved to each sample time (the negative branch has
    # the same |omega|).
    _check_max_omega(_KG_PLUS, grid, units, reach, "times")

    return ScenarioConfig(
        scenario=name, resolved=resolved, grid=grid, units=units, times=times,
        gamma_spread_tol=spread_tol, fmt=resolved["format"], output=resolved["output"], **kwargs,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt(x: float) -> str:
    """One Python float as format_rows writes it: '%.17g', or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return "%.17g" % x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


# What a file's text is written through, a piece at a time: a file's write,
# or a bytearray's extend.
_Write = Callable[[bytes | bytearray | memoryview], object]


def _dump(obj: Any, write: _Write, indent: int = 0) -> None:
    """Write obj through write as JSON with sorted keys and 17-significant-digit floats.

    A 1-D float ndarray is written like a list of floats. Its text is the
    only text held whole, so that the separator after its last value can be
    dropped.
    """
    if isinstance(obj, np.ndarray):
        text = bytearray(b"[")
        format_rows(np.asarray(obj, dtype=np.float64).reshape(-1, 1), [b", "], text.extend)
        text[max(1, len(text) - 2):] = b"]"
        write(text)
        return
    if isinstance(obj, dict) and obj:
        opening, closing = b"{", b"}"
        items = [(json.dumps(str(key)).encode() + b": ", value)
                 for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)) and not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        opening, closing = b"[", b"]"
        items = [(b"", value) for value in obj]
    else:
        write(_scalar(obj).encode())
        return
    inner = b"  " * (indent + 1)
    write(opening)
    for i, (key, value) in enumerate(items):
        write(b"%s\n%s%s" % (b"," if i else b"", inner, key))
        _dump(value, write, indent + 1)
    write(b"\n%s%s" % (b"  " * indent, closing))


def _scalar(obj: Any) -> str:
    """The JSON text of anything but a nonempty dict or a list that holds more than numbers."""
    if isinstance(obj, dict):
        return "{}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_fmt(v) if isinstance(v, float) else str(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _json(obj: Any, write: _Write) -> None:
    """A JSON file: obj, then a newline."""
    _dump(obj, write)
    write(b"\n")


def _write_file(path: Path, body: Callable[[_Write], None]) -> None:
    """Write a file at path as a new inode, replacing whatever was there.

    body writes the file's text, chunk by chunk, through the write it is
    given, so no file's text is ever held whole. Unlinking first means a
    rerun never truncates the old file in place: truncating blocks the
    previous run had flushed costs a discard and a writeback on close
    (about 0.13 s for a 4 MB fields file on ext4), where a new inode stays
    delayed-allocated. A hard link to the old file keeps its bytes, and a
    symlink is replaced, not followed. The exclusive open fails, rather
    than truncate, if a file has appeared at path since the unlink.
    """
    path.unlink(missing_ok=True)
    with path.open("xb") as file:
        body(file.write)


# ---------------------------------------------------------------------------
# running

@dataclass(frozen=True)
class ObservableSeries:
    """One evolved state's observables at each sample time, as float64 tables.

    fields[i, :, c] is column FIELD_COLUMNS[c] on the grid at times[i] (its
    't' column holds times[i]), and summary[i, c] is SUMMARY_COLUMNS[c] at
    times[i].
    """

    fields: np.ndarray
    summary: np.ndarray


@dataclass(frozen=True)
class RunResult:
    scenario: str
    files: list[Path]
    results: dict[str, Any]
    derived: dict[str, Any]
    series: dict[str, ObservableSeries]


def _series_for(state: SpectralState, config: ScenarioConfig
                ) -> tuple[ObservableSeries, list[DensityCurrentFields]]:
    """Evolve to each sample time and fill the series' fields and summary tables.

    Each sample's fields are returned too, in config.times order, so that
    runners read them rather than evolving again. The state is a run's KG+
    initial state or, in branch-demo, its KG- twin: the continuity defect
    pairs the conserved density with the standard current, and moments are
    taken on the conserved density for KG+ and on psi*psi for KG- (where
    the conserved density need not be positive).
    """
    grid = config.grid
    table = np.empty((len(config.times), grid.n, len(FIELD_COLUMNS)))
    summary = np.empty((len(config.times), len(SUMMARY_COLUMNS)))
    samples = []
    for i, t in enumerate(config.times):
        result = evolve(state, t)
        fields = compute_fields(result)
        mom_rho = fields.rho_kg if state.kind is DispersionKind.KLEIN_GORDON_POSITIVE \
            else fields.rho_nonrel
        mom = moments(mom_rho, grid)
        imin = int(np.argmin(fields.rho_kg))
        summary[i] = (t, state_norm(grid, result.state.values), mom.centroid, mom.variance,
                      fields.gamma_bar, fields.gamma_spread, continuity_exact(fields),
                      fields.rho_kg[imin], grid.points[imin])
        for c, column in enumerate((t, grid.points, result.state.values.real,
                                    result.state.values.imag, fields.rho_kg, fields.j_std)):
            table[i, :, c] = column
        samples.append(fields)
    return ObservableSeries(fields=table, summary=summary), samples


def _csv(table: np.ndarray, columns: tuple[str, ...], write: _Write) -> None:
    """A table as CSV: the column names, then one line per row of its last axis."""
    write((",".join(columns) + "\n").encode("ascii"))
    format_rows(table.reshape(-1, len(columns)), [b","] * (len(columns) - 1) + [b"\n"], write)


def _series_files(series: ObservableSeries, fmt: str) -> dict[str, Callable[[_Write], None]]:
    """The bodies of a series' fields and summary files, in file order."""
    if fmt == "csv":
        return {"fields": functools.partial(_csv, series.fields, FIELD_COLUMNS),
                "summary": functools.partial(_csv, series.summary, SUMMARY_COLUMNS)}
    fields = [{"t": block[0, 0], **dict(zip(FIELD_COLUMNS[1:], block.T[1:]))}
              for block in series.fields]
    summary = [dict(zip(SUMMARY_COLUMNS, row)) for row in series.summary.tolist()]
    return {"fields": functools.partial(_json, {"fields": fields}),
            "summary": functools.partial(_json, {"summary": summary})}


# What a runner returns: the series to write (keyed "main", or by branch
# label, in file order), its entries of the run's "derived" block, and its
# "results" block.
_RunnerOutput = tuple[dict[str, ObservableSeries], dict[str, Any], dict[str, Any]]


def _main_series(state: SpectralState, config: ScenarioConfig
                 ) -> tuple[dict[str, ObservableSeries], dict[str, Any],
                            list[DensityCurrentFields]]:
    """The frame of a one-state scenario: its series, gamma statistics and samples."""
    main, samples = _series_for(state, config)
    stats = gamma_of_state(state)
    derived = {
        "gamma_bar": stats.gamma_bar,
        "gamma_spread": stats.gamma_spread,
        "gamma_spread_flag": not stats.relative_spread <= config.gamma_spread_tol,
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
    series, derived, samples = _main_series(config.state, config)
    derived["group_velocity_carrier"] = group_velocity(_KG_PLUS, config.packet.k0, config.units)
    conserved = series["main"].summary[:, SUMMARY_COLUMNS.index("continuity_exact")]
    rows = [{"t": t, "residual_conserved": residual,
             "residual_amended": continuity_exact(fields, amended=True)}
            for t, fields, residual in zip(config.times, samples, conserved.tolist())]
    return series, derived, {
        "continuity": rows,
        "max_residual_conserved": max(r["residual_conserved"] for r in rows),
        "max_residual_amended": max(r["residual_amended"] for r in rows),
    }


def _run_gamma_density(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, samples = _main_series(config.state, config)
    deviations = []
    for t, fields in zip(config.times, samples):
        rho_nonrel = fields.rho_nonrel
        mask = rho_nonrel >= 1e-3 * rho_nonrel.max()
        rel = np.abs(fields.rho_kg[mask] / (derived["gamma_bar"] * rho_nonrel[mask]) - 1.0)
        deviations.append({"t": t, "max_rel_deviation": float(rel.max())})
    return series, derived, {"density_vs_gamma": deviations, "mask_threshold": 1e-3}


def _run_amended(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, samples = _main_series(config.state, config)
    # The peak's velocity is reported beside the carrier's group velocity,
    # not divided by it: a packet at rest has a group velocity of 0.
    derived["group_velocity_carrier"] = group_velocity(_KG_PLUS, config.packet.k0, config.units)
    rows = []
    for t, fields in zip(config.times, samples):
        gap = np.linalg.norm(fields.rho_amended - fields.rho_nonrel)
        ref = np.linalg.norm(fields.rho_nonrel)
        peak = int(np.argmax(fields.rho_amended))
        rows.append({
            "t": t,
            "l2_ratio_to_nonrel": float(gap / ref),
            "peak_velocity": float(fields.j_amended[peak] / fields.rho_amended[peak]),
        })
    return series, derived, {"amended_reduction": rows}


def _run_branch_demo(config: ScenarioConfig) -> _RunnerOutput:
    (_, k), = config.modes.modes
    negative = from_coefficients(config.grid, config.units, unphysical_negative_branch(),
                                 config.state.coefficients)
    series, branches = {}, {}
    for label, state in (("positive", config.state), ("negative", negative)):
        series[label], samples = _series_for(state, config)
        branches[label] = {"density_ratio_mean": [
            float(np.mean(f.rho_kg / f.rho_nonrel)) for f in samples]}
    return series, {}, {
        "branches": branches,
        "mode_k": k,
        "mode_omega": omega(_KG_PLUS, k, config.units),
    }


def _run_two_mode(config: ScenarioConfig) -> _RunnerOutput:
    units = config.units
    results: dict[str, Any] = {"analytic_min": two_mode_min_density(config.two_mode, units)}
    (_, k1), (_, k2) = config.modes.modes
    series, derived, _ = _main_series(config.state, config)
    results["realized_lattice"] = {
        "k1": k1, "k2": k2,
        "omega1": omega(_KG_PLUS, k1, units), "omega2": omega(_KG_PLUS, k2, units),
    }
    results.update(_grid_scan(config.modes, config)[0])
    return series, derived, results


def _run_superposition_scan(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, samples = _main_series(config.state, config)
    results, densities = _grid_scan(config.modes, config)
    results["amplitude_vs_state_max_diff"] = max(
        float(np.max(np.abs(sd.rho - f.rho_kg))) for sd, f in zip(densities, samples))
    return series, derived, results


def _run_nonrel_limit(config: ScenarioConfig) -> _RunnerOutput:
    series, derived, _ = _main_series(config.state, config)
    # The gaps are read at the sample time farthest from 0, whose phase
    # validate_config bounds; sin^2 is even in t.
    k, t = config.grid.wavenumbers, max(config.times, key=abs)
    # Both twins share the coefficients a_j. By Parseval their gap at t is
    # 2 sqrt(L sum |a_j|^2 sin^2(D t/2)): D = -r^2/(2 omega0) is the stripped
    # KG+ rate less hbar k^2/2m, and r = omega - omega0 = (ck)^2/(omega + omega0).
    # Neither subtracts near-equal numbers, at any c.
    weights = np.abs(config.state.coefficients) ** 2
    gaps = {}
    for label, units in (("base", config.units), ("doubled", config.doubled_units)):
        r = (units.c * k) ** 2 / (omega(_KG_PLUS, k, units) + units.rest_omega)
        drift = np.sin(r**2 / (2.0 * units.rest_omega) * t / 2.0)
        gap = 2.0 * math.sqrt(config.grid.length * float(np.sum(weights * drift**2)))
        gaps[label] = {"c": units.c, "l2_gap": gap}
    return series, derived, {
        "gaps": gaps,
        # numpy divides, so that zero gaps raise under the run's raise mode.
        "gap_ratio": float(np.divide(gaps["base"]["l2_gap"], gaps["doubled"]["l2_gap"])),
        "t": t,
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
         "state": {"two_mode": {"a1_sq": 0.9, "a2_sq": 0.1, "omega1": 1.0, "omega2": 5.0}}},
        "two-mode interference; closed-form phase minimum and a realized negative grid density",
        _run_two_mode),
    "superposition-scan": Scenario(
        {"grid": {"n": 1024, "length": 400.0},
         "units": {"hbar": 1.0, "c": 1.0, "m": 1.0},
         "state": {"modes": [
             {"amplitude_re": a.real, "amplitude_im": a.imag, "index": j}
             for a, j in zip(_SCAN_AMPLITUDES, _SCAN_INDICES)
         ]},
         "times": [0.0, 2.5, 5.0]},
        "multi-mode superposition; amplitude-space density scan cross-checked against the state density",
        _run_superposition_scan),
    "nonrel-limit": Scenario(
        {"units": {"hbar": 1.0, "c": 10.0, "m": 1.0},
         "state": {"packet": {"x0": 0.0, "k0": 0.0, "sigma": 20.0}},
         "times": [5.0],
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


def _compute(config: ScenarioConfig) -> _RunnerOutput:
    """The scenario's runner, under numpy's raise mode: an overflow or invalid
    value raises FloatingPointError, naming the scenario and the stage,
    instead of yielding NaN or inf. run and validate both compute through
    here, so validate fails exactly where run would."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return SCENARIOS[config.scenario].run(config)
    except FloatingPointError as exc:
        raise FloatingPointError(f"scenario {config.scenario!r}, stage runner: {exc}") from exc


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute one scenario and write its outputs; returns what was written.

    Nothing is written, and no directory made, unless the computation
    (_compute) returns. If an output cannot be written in full, that file
    and the files this run already wrote are removed before the error
    propagates, so a failed run leaves no half of itself behind.
    """
    series, derived, results = _compute(config)
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    try:
        for label, ser in series.items():
            stem = config.scenario if label == "main" else f"{config.scenario}_{label}"
            for name, body in _series_files(ser, config.fmt).items():
                path = out / f"{stem}_{name}.{config.fmt}"
                # Listed before it is opened, so that a failure mid-file
                # removes the partial file too.
                files.append(path)
                _write_file(path, body)

        metadata = {
            "scenario": config.scenario,
            "version": __version__,
            "config": config.resolved,
            "derived": derived,
            "results": results,
        }
        meta_path = out / f"{config.scenario}_run.json"
        files.append(meta_path)
        _write_file(meta_path, functools.partial(_json, metadata))
    except BaseException:
        for path in files:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    return RunResult(scenario=config.scenario, files=files, results=results,
                     derived=derived, series=series)
