import contextlib
import errno
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kg_lab import compute_fields, continuity_exact, evolve, gamma_of_state, moments, state_norm
from kg_lab.cli import build_parser, main
import kg_lab.scenarios
from kg_lab.scenarios import (
    FIELD_COLUMNS,
    SUMMARY_COLUMNS,
    _compute,
    default_config,
    run_scenario,
    scenario_names,
    validate_config,
)
from strategies import laws


def _cfg(name, **overrides):
    return {"scenario": name, **overrides}


def _config_text(name, **overrides):
    return json.dumps(_cfg(name, **overrides))


SMALL = dict(
    grid={"n": 512, "length": 200.0},
    state={"packet": {"x0": 0.0, "k0": 3.0, "sigma": 8.0}},
    times=[0.0, 5.0],
)


def test_catalog_is_not_mutated_by_overrides():
    before = json.dumps(default_config("amended"), sort_keys=True, default=str)
    validate_config(_config_text("amended", times=[1.0]))
    assert json.dumps(default_config("amended"), sort_keys=True, default=str) == before


def test_every_catalog_default_validates_at_t_1e6():
    for name in scenario_names():
        assert validate_config(_config_text(name, times=[1e6])).times == (1e6,)


def test_mode_entry_validation():
    # On-lattice k is accepted and normalized into the resolved config.
    k = 2.0 * math.pi * 5 / 400.0
    cfg = validate_config(_config_text("superposition-scan",
                                       state={"modes": [{"amplitude_re": 1.0, "k": k}]}))
    entry = cfg.resolved["state"]["modes"][0]
    assert entry["amplitude_im"] == 0.0 and entry["k"] == k
    assert len(cfg.modes.modes) == 1


SELECTOR_BLOCKS = {
    "branch-demo": lambda selector: {"modes": [{"amplitude_re": 1.0, **selector}]},
    "superposition-scan": lambda selector: {"modes": [
        {"amplitude_re": 0.6, "index": 100}, {"amplitude_im": 0.8, **selector}]},
}


@pytest.mark.parametrize("j", [-7, 1, 64])
@pytest.mark.parametrize("name", list(SELECTOR_BLOCKS))
def test_k_and_index_selectors_name_the_same_state(name, j):
    # A k selector is the lattice wavenumber it rounds to, so a k off 2 pi j / L
    # by rounding names the same modes and the same initial state as index j.
    length = default_config(name)["grid"]["length"]
    by_index, by_k = (validate_config(_config_text(name, state=SELECTOR_BLOCKS[name](selector)))
                      for selector in ({"index": j}, {"k": 2.0 * math.pi * j / length + 1e-13}))
    assert by_k.modes == by_index.modes
    assert np.array_equal(by_k.state.coefficients, by_index.state.coefficients)


# branch-demo writes no derived block; every other scenario's is the gamma
# statistics of its initial state.
@pytest.mark.parametrize("name", [n for n in scenario_names() if n != "branch-demo"])
def test_derived_block_is_the_initial_states_gamma_statistics(tmp_path, name):
    # Bit for bit.
    stats = gamma_of_state(validate_config(_config_text(name)).state)
    derived = run_scenario(validate_config(_config_text(name)), tmp_path, "csv").derived
    assert (derived["gamma_bar"], derived["gamma_spread"]) == stats


def test_series_columns_hold_the_named_observables(tmp_path):
    # Each column of the tables, by its name, against the observable it names.
    cfg = validate_config(_config_text("amended", **SMALL))
    series = run_scenario(cfg, tmp_path, "csv").series["main"]
    grid = cfg.grid
    for i, t in enumerate(cfg.times):
        result = evolve(cfg.state, t)
        psi = result.state.values
        f = compute_fields(result)
        columns = {"t": t, "x": grid.points, "re_psi": psi.real, "im_psi": psi.imag,
                   "rho_nonrel": f.rho_nonrel, "rho_kg": f.rho_kg, "rho_amended": f.rho_amended,
                   "j_std": f.j_std, "j_amended": f.j_amended}
        for c, name in enumerate(FIELD_COLUMNS):
            assert np.array_equal(series.fields[i, :, c], np.broadcast_to(columns[name], grid.n))
        mom = moments(f.rho_kg, grid)
        imin = int(np.argmin(f.rho_kg))
        scalars = {"t": t, "norm": state_norm(grid, psi), "centroid": mom.centroid,
                   "variance": mom.variance, "gamma_bar": f.gamma_bar,
                   "gamma_spread": f.gamma_spread,
                   "continuity_exact": continuity_exact(f),
                   "min_rho_kg": f.rho_kg[imin], "argmin_x": grid.points[imin]}
        assert series.summary[i].tolist() == [scalars[name] for name in SUMMARY_COLUMNS]


def test_branch_demo_writes_both_branches(tmp_path):
    cfg = validate_config(_config_text("branch-demo"))
    ratios = run_scenario(cfg, tmp_path, "csv").results["branches"]
    assert ratios["positive"]["density_ratio_mean"][0] == pytest.approx(1.25, abs=1e-12)
    assert ratios["negative"]["density_ratio_mean"][0] == pytest.approx(-1.25, abs=1e-12)


# Where each scenario's _run.json reports its modes' k and omega.
REALIZED_LATTICE = {
    "two-mode": lambda results: (results["realized_lattice"], ("k1", "k2"), ("omega1", "omega2")),
    "branch-demo": lambda results: (results, ("mode_k",), ("mode_omega",)),
}


@pytest.mark.parametrize("name", list(REALIZED_LATTICE))
def test_run_json_reports_the_lattice_the_state_evolves_with(tmp_path, name):
    # Each reported k is the grid's lattice wavenumber and each omega the
    # state's own frequency at that position, bit for bit.
    cfg = validate_config(_config_text(name))
    block, k_keys, omega_keys = REALIZED_LATTICE[name](run_scenario(cfg, tmp_path, "csv").results)
    index = [cfg.grid.wavenumber_index(k) for _, k in cfg.modes.modes]
    assert sorted(index) == np.flatnonzero(cfg.state.coefficients).tolist()
    bits = lambda values: np.array(values, dtype=np.float64).view(np.uint64).tolist()
    assert bits([block[key] for key in k_keys]) == bits(cfg.grid.wavenumbers[index])
    assert bits([block[key] for key in omega_keys]) == bits(cfg.state.omegas[index])


@laws
@given(length=st.floats(100.0, 1000.0), omega1=st.floats(1.0, 5.0), omega2=st.floats(6.0, 12.0))
def test_two_mode_realizes_the_lattice_k_nearest_each_frequency(length, omega1, omega2):
    # Each realized k lies within half a lattice spacing, pi/L, of the
    # positive-branch k of its frequency: here k = sqrt(omega^2 - 1), as
    # hbar = c = m = 1. The slack is for the rounding of both square roots.
    cfg = validate_config(_config_text(TWO, grid={"length": length}, state={
        "two_mode": {"omega1": omega1, "omega2": omega2}}))
    for (_, k), w in zip(cfg.modes.modes, (omega1, omega2)):
        assert abs(k - math.sqrt(w * w - 1.0)) <= math.pi / length * (1.0 + 1e-9)


def test_rerun_replaces_each_output_file(tmp_path):
    # A rerun writes each output as a new file: a hard link to the old one
    # keeps the first run's bytes, and a symlink is replaced, not followed.
    out = tmp_path / "out"
    run_scenario(validate_config(_config_text("amended", **SMALL)), out, "csv")
    fields = out / "amended_fields.csv"
    first = fields.read_bytes()
    kept = tmp_path / "kept.csv"
    os.link(fields, kept)
    target = tmp_path / "target.csv"
    target.write_bytes(b"target\n")
    summary = out / "amended_summary.csv"
    summary.unlink()
    summary.symlink_to(target)

    run_scenario(validate_config(_config_text("amended", **{**SMALL, "times": [5.0]})), out,
                 "csv")
    assert kept.read_bytes() == first
    assert not os.path.samefile(fields, kept)
    assert fields.read_bytes() != first
    assert fields.read_bytes().count(b"\n") == 1 + 512  # header + one sample time
    assert not summary.is_symlink() and summary.is_file()
    assert summary.read_bytes().startswith(",".join(SUMMARY_COLUMNS).encode())
    assert target.read_bytes() == b"target\n"


@pytest.mark.parametrize("blocked", ["amended_run.json", "amended_fields.csv"])
def test_run_exits_4_when_an_output_path_is_a_directory(tmp_path, capsys, blocked):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_text("amended", **SMALL))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "IsADirectoryError"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert (out / blocked).is_dir()
    # The files written before the failing one are removed with it.
    assert [p.name for p in out.iterdir()] == [blocked]


def test_consecutive_main_calls_share_no_parse_state(tmp_path, capsys):
    # One parser serves every main call in a process; each call's options
    # are its own.
    assert build_parser() is build_parser()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_text("amended", **SMALL))
    out_dir = tmp_path / "out"
    assert main(["validate", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("OK: amended")
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--format", "json",
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("scenario: amended\n  " + " ".join(SUMMARY_COLUMNS))
    assert f"wrote {out_dir / 'amended_fields.csv'}" in text


def test_cli_scenarios_lists_catalog(capsys):
    assert main(["scenarios"]) == 0
    names = [line.split(":", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert names == scenario_names() == [
        "packet-continuity", "gamma-density", "amended", "branch-demo",
        "two-mode", "superposition-scan", "nonrel-limit"]


def _cli(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_record(code, out, err):
    """A nonzero exit prints nothing on stdout and one JSON record on stderr,
    which is returned (None for exit 0)."""
    if code == 0:
        return None
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"error", "message"}
    assert out == ""
    return record


PC, AM, BD, TWO, SCAN, NR = ("packet-continuity", "amended", "branch-demo", "two-mode",
                             "superposition-scan", "nonrel-limit")
CONFIG, BANDWIDTH, PHYSICS = (2, "ConfigError"), (3, "BandwidthError"), (2, "FloatingPointError")
AT_REST = {"x0": 0.0, "k0": 0.0}
TWO_MODE = b'{"scenario": "two-mode", "state": {"two_mode": {%s}}}'
DEEP = b'{"scenario": "amended", "times": '

# Configs that validate and run refuse alike: the config (a dict, the raw
# bytes of the file, or None for a missing file), the exit code, the error
# record's class and a fragment of its message.
REJECTED = {
    "unknown-scenario": (_cfg("nope"), *CONFIG, "unknown scenario 'nope'"),
    "no-scenario": ({"grid": {"n": 16}}, *CONFIG, "scenario: required string"),
    "unknown-key": (_cfg(PC, bogus=1), *CONFIG, "bogus: unknown key"),
    "unknown-grid-key": (_cfg(PC, grid={"dx": 0.1}), *CONFIG, "grid.dx: unknown key"),
    "unknown-state-key": (_cfg(PC, state={"packet": {"width": 3}}), *CONFIG, "state.packet.width"),
    "removed-dt-continuity": (_cfg(PC, dt_continuity=1e-3), *CONFIG, "dt_continuity: unknown key"),
    "removed-strip-time": (_cfg(NR, strip_time=5.0), *CONFIG, "strip_time: unknown key"),
    "not-json": (b"{not json", *CONFIG, "not valid JSON: line 1 column 2"),
    "not-an-object": (b"[1, 2]", *CONFIG, "expected a top-level object"),
    "not-utf-8": (b'{"scenario": "amended\xff\xfe"}', *CONFIG, "not UTF-8 text"),
    "nested-past-the-parser": (DEEP + b"[" * 100_000, *CONFIG, "nested too deeply to parse"),
    "nested-past-the-schema": (DEEP + b"[" * 500 + b"]" * 500 + b"}", *CONFIG, "than 16 levels"),
    "missing-file": (None, 4, "FileNotFoundError", "No such file or directory: 'cfg.json'"),
    "n-not-a-power-of-two": (_cfg(PC, grid={"n": 1000}), *CONFIG, "grid: n must be"),
    "negative-mass": (_cfg(PC, units={"m": -1.0}), *CONFIG, "units: m must be"),
    "no-times": (_cfg(PC, times=[]), *CONFIG, "times: must list"),
    # where and how a run writes are run's --out and --format, not config
    # keys: a config that sets either is refused as an unknown key
    "format-xml": (_cfg(PC, format="xml"), *CONFIG, "format: unknown key"),
    "output-in-config": (_cfg(PC, output="elsewhere"), *CONFIG, "output: unknown key"),
    "c-factor-of-1": (_cfg(NR, c_factor=1.0), *CONFIG, "c_factor: must exceed 1"),
    # gamma_spread_tol is no longer a key: values it once refused as not
    # positive are now refused as an unknown key
    "gamma-spread-tol-zero": (_cfg(PC, gamma_spread_tol=0.0), *CONFIG,
                              "gamma_spread_tol: unknown key"),
    "gamma-spread-tol-negative": (_cfg(PC, gamma_spread_tol=-1.0), *CONFIG,
                                  "gamma_spread_tol: unknown key"),
    # unit systems whose products over- or underflow
    "rest-omega-underflows": (_cfg(PC, units={"m": 1e-300}), *CONFIG, "rest_omega**2 is 0.0"),
    "c-squared-underflows": (_cfg(BD, units={"c": 1e-200}), *CONFIG, "units: c*c is 0.0"),
    "c-squared-overflows": (_cfg(PC, units={"c": 1e200}), *CONFIG, "units: c*c is inf"),
    "doubled-c-overflows": (_cfg(NR, units={"c": 1e77}), *CONFIG, "c_factor: rest_omega**2"),
    # lattice frequencies that overflow; phases omega * t that overflow or
    # that rounding has made meaningless (ulp(5e14) is 0.0625 rad); at
    # t = 2.5e7 nonrel-limit's KG+ phase rounds by 9.4e-7 rad, and the
    # Schrodinger phase that bounds its gaps' phase by 1.4e-6 rad
    "max-k-overflows": (_cfg(PC, grid={"n": 8, "length": 1e-320}), *CONFIG, "pi*n/L overflows"),
    "nyquist-omega-overflows": (_cfg(AM, grid={"n": 8192, "length": 1e-150},
                                     state={"packet": {**AT_REST, "sigma": 1e-152}}), *CONFIG,
                                "grid: the kg+ frequency at the Nyquist wavenumber is inf"),
    "phase-overflows": (_cfg(PC, times=[1e307]), *CONFIG, "times: the phase"),
    "gap-phase-rounds": (_cfg(NR, times=[2.5e7]), *CONFIG, "times: the phase"),
    "phase-all-rounding": (_cfg(PC, times=[1e300]), *CONFIG, "times: the phase"),
    "phase-rounds-by-0.06-rad": (_cfg(PC, times=[1e14]), *CONFIG, "rounds by more than 1e-6"),
    # numbers that are not finite floats
    "n-past-the-float-range": (_cfg(PC, grid={"n": 10**400}), *CONFIG, "grid.n: must be finite"),
    "time-past-the-float-range": (_cfg(PC, times=[10**400]), *CONFIG, "times[0]: must be finite"),
    "omega1-past-the-float-range": (_cfg(TWO, state={"two_mode": {"omega1": 10**400}}), *CONFIG,
                                    "state.two_mode.omega1: must be finite"),
    "omega1-a-string": (TWO_MODE % b'"omega1": "x"', *CONFIG,
                        "state.two_mode.omega1: expected a number, got 'x'"),
    "a1-sq-null": (TWO_MODE % b'"a1_sq": null', *CONFIG,
                   "state.two_mode.a1_sq: expected a number, got None"),
    "omega2-infinite": (TWO_MODE % b'"omega2": 1e999', *CONFIG,
                        "state.two_mode.omega2: must be finite, got inf"),
    # an integer literal longer than the interpreter converts to int
    "int-past-the-digit-limit": (b'{"scenario": "amended", "grid": {"n": %s}}' % (b"1" * 5000),
                                 *CONFIG, "config: Exceeds the limit (4300 digits)"),
    # packets past the support rule (x0=48, sigma=19.9 leaked 1.6e-10 under the
    # old 6 sigma rule), and one inside it that leaks 4.8e-6 into the Nyquist mode
    "packet-past-support": (_cfg(PC, state={"packet": {"sigma": 40.0}}), *BANDWIDTH, "support"),
    "packet-at-the-old-support-limit": (
        _cfg(PC, state={"packet": {"x0": 48.0, "k0": 3.0, "sigma": 19.9}}), *BANDWIDTH,
        "packet support"),
    "packet-leaks-into-the-nyquist-mode": (
        _cfg(PC, state={"packet": {"x0": 0.0, "k0": 32.0, "sigma": 20.0}}), *BANDWIDTH,
        "Nyquist mode carries"),
    # mode entries; in the two k rows past the lattice k L / 2 pi overflows,
    # and in the last row the k entry rounds to index 5
    "mode-index-past-the-lattice": (
        _cfg(BD, state={"modes": [{"amplitude_re": 1.0, "index": 256}]}), *BANDWIDTH,
        "state.modes[0]: mode index 256 outside the open lattice range"),
    "mode-index-and-k": (
        _cfg(BD, state={"modes": [{"amplitude_re": 1.0, "index": 3, "k": 1.0}]}), *CONFIG,
        "state.modes[0]: give exactly one of 'index' or 'k'"),
    "mode-k-past-the-lattice": (
        _cfg(BD, state={"modes": [{"amplitude_re": 1.0, "k": 1e308}]}), *BANDWIDTH,
        "state.modes[0]: wavenumber 1e+308 lies outside the resolvable lattice"),
    # a lattice mode is a one-entry modes list: the single-mode shorthand is
    # gone, and branch-demo's plane wave takes exactly one entry
    "mode-shorthand": (_cfg(BD, state={"mode": {"index": 64}}), *CONFIG, "state.mode: unknown key"),
    "branch-demo-two-modes": (
        _cfg(BD, state={"modes": [{"amplitude_re": 0.6, "index": 3},
                                  {"amplitude_re": 0.8, "index": 5}]}), *CONFIG,
        "state.modes: branch-demo takes exactly one mode, got 2"),
    "modes-k-past-the-lattice": (
        _cfg(SCAN, grid={"length": 1e10}, state={"modes": [{"amplitude_re": 1.0, "k": 1e300}]}),
        *BANDWIDTH, "state.modes[0]: wavenumber 1e+300 lies outside the resolvable lattice"),
    "mode-k-off-the-lattice": (_cfg(SCAN, state={"modes": [{"amplitude_re": 1.0, "k": 0.1234}]}),
                               *BANDWIDTH, "is off-lattice"),
    "modes-off-unit-norm": (_cfg(SCAN, state={"modes": [{"amplitude_re": 0.5, "index": 3}]}),
                            *CONFIG, "unitarity"),
    "amplitude-squared-overflows": (
        _cfg(SCAN, state={"modes": [{"amplitude_re": 1e300, "index": 3}]}), *CONFIG,
        "(unitarity), got inf"),
    "modes-on-one-lattice-index": (
        _cfg(SCAN, state={"modes": [{"amplitude_re": 0.6, "index": 5}, {
            "amplitude_re": 0.8, "k": 2.0 * math.pi * 5 / 400.0 + 1e-13}]}),
        *CONFIG, "state.modes: mode wavenumbers must be distinct"),
    # two-mode pairs
    "two-mode-off-unit-norm": (_cfg(TWO, state={"two_mode": {"a1_sq": 0.5, "a2_sq": 0.2}}),
                               *CONFIG, "unitarity"),
    "two-mode-below-rest": (TWO_MODE % b'"omega1": 0.2', *CONFIG, "above the rest frequency"),
    "two-mode-k-at-c-1e-160": (_cfg(TWO, units={"c": 1e-160, "m": 1e160}), *BANDWIDTH,
                               "omega1: wavenumber 1e+160 lies at or beyond"),
    "two-mode-omega1-1e300": (TWO_MODE % b'"omega1": 1e300', *BANDWIDTH,
                              "omega1: wavenumber 9.999999999999999e+299"),
    "two-mode-on-one-lattice-mode": (TWO_MODE % b'"omega1": 1.0, "omega2": 1.00001', *BANDWIDTH,
                                     "frequencies resolve to the same lattice mode"),
    "two-mode-past-nyquist": (TWO_MODE % b'"omega2": 1e6', *BANDWIDTH,
                              "omega2: wavenumber 999999.9999995 lies at"),
    # the physics itself: every lattice frequency and phase is finite, but the
    # spectral derivative of the current overflows in this tiny box, and both
    # nonrel-limit gaps are exactly 0 at t = 0, so their ratio is 0/0
    "dj-dx-overflows": (_cfg(AM, grid={"n": 8192, "length": 1e-140},
                             state={"packet": {**AT_REST, "sigma": 1e-142}}),
                        *PHYSICS, "scenario 'amended', stage runner: overflow"),
    "nonrel-gaps-both-zero": (_cfg(NR, times=[0.0]), *PHYSICS, "stage runner: invalid value"),
}


# Rows that run under the names of the tests that first checked them, in
# those tests' order; every other row runs as test_validate_and_run_refuse_alike.
EXTREME_UNITS = ("rest-omega-underflows", "c-squared-underflows", "c-squared-overflows",
                 "doubled-c-overflows")
OVERFLOW_AND_UNRESOLVED_DT = (
    "nyquist-omega-overflows", "phase-overflows", "gap-phase-rounds", "phase-all-rounding",
    "phase-rounds-by-0.06-rad", "n-past-the-float-range", "time-past-the-float-range",
    "omega1-past-the-float-range", "amplitude-squared-overflows", "max-k-overflows")
UNRESOLVABLE_TWO_MODE = ("two-mode-k-at-c-1e-160", "two-mode-omega1-1e300",
                         "two-mode-on-one-lattice-mode", "two-mode-past-nyquist")
NAMED = EXTREME_UNITS + OVERFLOW_AND_UNRESOLVED_DT + UNRESOLVABLE_TWO_MODE


@pytest.mark.parametrize("config", [REJECTED[row] for row in EXTREME_UNITS])
def test_extreme_units_exit_as_config_errors(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    _assert_refused_alike(*config)


@pytest.mark.parametrize("config", [REJECTED[row] for row in OVERFLOW_AND_UNRESOLVED_DT])
def test_validate_and_run_reject_overflow_and_unresolved_dt(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    _assert_refused_alike(*config)


@pytest.mark.parametrize("two_mode_config", [REJECTED[row] for row in UNRESOLVABLE_TWO_MODE])
def test_validate_and_run_reject_unresolvable_two_mode(tmp_path, monkeypatch, two_mode_config):
    monkeypatch.chdir(tmp_path)
    _assert_refused_alike(*two_mode_config)


@pytest.mark.parametrize("row", [row for row in REJECTED if row not in NAMED])
def test_validate_and_run_refuse_alike(tmp_path, monkeypatch, row):
    monkeypatch.chdir(tmp_path)
    _assert_refused_alike(*REJECTED[row])


def _assert_refused_alike(config, code, error, fragment):
    """Each command exits with the row's code and one record, warns of nothing
    and leaves no file in the working directory: no --out directory."""
    if config is not None:
        Path("cfg.json").write_bytes(config if isinstance(config, bytes)
                                     else json.dumps(config).encode())
    for argv in (["validate", "cfg.json"], ["run", "cfg.json", "--out", "out"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _cli(argv)
        assert caught == []
        assert result[0] == code
        record = _assert_exit_record(*result)
        assert record["error"] == error
        assert fragment in record["message"]
    assert os.listdir() == ([] if config is None else ["cfg.json"])


@pytest.mark.parametrize("config", [
    # A real packet at rest: j and drho/dt are both rounding noise, which a
    # residual scaled by max|j| read as 2.2e5.
    {"scenario": "packet-continuity", "state": {"packet": {"x0": 0.0, "k0": 0.0, "sigma": 10.0}},
     "times": [0.0, 10.0]},
    {"scenario": "nonrel-limit", "times": [0.0, 5.0]},  # read 3.8e4 at t = 0
])
def test_continuity_defect_stays_at_rounding_for_states_at_rest(tmp_path, config):
    run = run_scenario(validate_config(json.dumps(config)), tmp_path, "csv")
    column = run.series["main"].summary[:, SUMMARY_COLUMNS.index("continuity_exact")]
    assert np.all(column <= 1e-9)
    for key in ("max_residual_conserved", "max_residual_amended"):
        assert run.results.get(key, 0.0) <= 1e-9


def test_amended_packet_at_rest_reports_its_peak_velocity(tmp_path, monkeypatch):
    # Its carrier's group velocity is 0, and j/rho at the peak is rounding noise.
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(_config_text("amended", state={"packet": AT_REST}))
    assert _cli(["validate", "cfg.json"])[0] == 0
    assert _cli(["run", "cfg.json", "--out", "out", "--quiet"]) == (0, "", "")
    rows = json.loads(Path("out/amended_run.json").read_text())["results"]["amended_reduction"]
    assert [abs(row["peak_velocity"]) <= 1e-12 for row in rows] == [True]


def test_run_without_flags_writes_csv_to_kg_lab_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(_config_text("amended", **SMALL))
    assert _cli(["run", "cfg.json", "--quiet"]) == (0, "", "")
    assert sorted(os.listdir("kg-lab-out")) == [
        "amended_fields.csv", "amended_run.json", "amended_summary.csv"]


def test_continuity_residual_stays_small_at_t_1e6(tmp_path):
    cfg = validate_config(_config_text("packet-continuity", times=[1e6]))
    assert run_scenario(cfg, tmp_path, "csv").results["max_residual_conserved"] <= 1e-6


def _limit_address_space():
    """Let the child map at most 1.5 GB, so that an oversized array fails to
    allocate instead of being allocated for real."""
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


def test_a_config_too_large_for_memory_exits_2_and_writes_nothing(tmp_path):
    # The grid alone needs 2 GiB per array.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "amended",
                                    "grid": {"n": 2**28, "length": 4e6}}))
    env = {**os.environ, "PYTHONPATH": str(Path(kg_lab.__file__).parents[1]),
           "OMP_NUM_THREADS": "1"}
    for command in (["validate", str(cfg_path)],
                    ["run", str(cfg_path), "--out", str(tmp_path / "out")]):
        proc = subprocess.run([sys.executable, "-m", "kg_lab.cli", *command], env=env,
                              capture_output=True, text=True, preexec_fn=_limit_address_space)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "MemoryError"
        assert record["message"].startswith("Unable to allocate")
        assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def _assert_a_failure_mid_file_removes_the_run(tmp_path, capsys, monkeypatch, error, code,
                                                record):
    # The second chunk that reaches a file raises, after the first is written:
    # in CSV the second chunk of the fields table, in JSON its second column.
    # The partial file is removed with the run, because its path is recorded
    # before the file is opened. Three sample times make the CSV fields table
    # 1536 rows of 6 columns, more than one chunk holds.
    format_rows = kg_lab.scenarios.format_rows
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_text("amended", **{**SMALL, "times": [0.0, 5.0, 10.0]}))
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        chunks, present = [], []

        def failing(values, seps, write):
            def write_chunk(chunk):
                chunks.append(len(chunk))
                if len(chunks) == 2:
                    present.extend(p.name for p in out.iterdir())
                    raise error
                write(chunk)
            format_rows(values, seps, write_chunk)

        monkeypatch.setattr(kg_lab.scenarios, "format_rows", failing)
        assert main(["run", str(cfg_path), "--out", str(out), "--format", fmt, "--quiet"]) == code
        assert len(chunks) == 2
        assert present == [f"amended_fields.{fmt}"]
        captured = capsys.readouterr()
        assert [json.loads(line) for line in captured.err.splitlines()] == [record]
        assert list(out.iterdir()) == []


def test_memory_running_out_while_writing_exits_2_and_removes_the_run(tmp_path, capsys,
                                                                      monkeypatch):
    _assert_a_failure_mid_file_removes_the_run(tmp_path, capsys, monkeypatch, MemoryError, 2,
                                               {"error": "MemoryError", "message": ""})


def test_a_full_disk_while_writing_exits_4_and_removes_the_run(tmp_path, capsys, monkeypatch):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    _assert_a_failure_mid_file_removes_the_run(tmp_path, capsys, monkeypatch, full, 4,
                                               {"error": "OSError", "message": str(full)})


# One catalog run evolves each sample once: the initial state to each sample
# time t, per series. nonrel-limit's gaps are a closed form on the packet's
# coefficients, so it evolves and transforms nothing beyond its series.
# validate builds every initial state and the runners re-tag its
# coefficients. Complex transforms per sample: one inverse each for psi,
# dpsi/dt, dpsi/dx and the continuity defect's psi_tt. The defect's dj/dx
# of the real current is one rfft and one irfft; packet-continuity's
# amended defect takes dj/dx of its own current. A scenario not listed
# evolves one state to its one sample time: one evolve, and (4, 2)
# transforms.
EVOLVE_CALLS = {
    "packet-continuity": 6,
    "branch-demo": 2,
    "superposition-scan": 3,
}
# Amplitude-space densities per run: superposition-scan's cross-check takes
# one per sample time, and every other scenario reads its minima off the
# state's own density.
DENSITY_CALLS = {"superposition-scan": 3}
# (forward_transform + inverse_transform, rfft + irfft) per catalog pass.
TRANSFORM_CALLS = {
    "packet-continuity": (24, 24),
    "branch-demo": (8, 4),
    "superposition-scan": (12, 6),
}


@pytest.mark.parametrize("name", scenario_names())
def test_each_sample_is_evolved_once(tmp_path, monkeypatch, transform_calls, name):
    calls, densities = [], []
    evolve, density = kg_lab.scenarios.evolve, kg_lab.scenarios.superposition_density
    monkeypatch.setattr(kg_lab.scenarios, "evolve",
                        lambda state, t: calls.append(t) or evolve(state, t))
    monkeypatch.setattr(kg_lab.scenarios, "superposition_density",
                        lambda *args: densities.append(args) or density(*args))
    config = validate_config(_config_text(name))
    transform_calls.clear()  # validate builds the initial state; count the run alone
    run_scenario(config, tmp_path / "out", "csv")
    evolves = EVOLVE_CALLS.get(name, 1)
    assert len(calls) == evolves
    assert len(densities) == DENSITY_CALLS.get(name, 0)
    assert transform_calls["rfft"] == transform_calls["irfft"]
    assert (transform_calls["forward_transform"] + transform_calls["inverse_transform"],
            transform_calls["rfft"] + transform_calls["irfft"]) == TRANSFORM_CALLS.get(name, (4, 2))
    # kg-lab validate evolves what run evolves, and writes nothing: not even
    # run's default --out directory in its working directory.
    calls.clear()
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(_config_text(name))
    code, out, err = _cli(["validate", "cfg.json"])
    assert (code, err, len(calls)) == (0, "", evolves)
    assert out.startswith(f"OK: {name} (")
    assert sorted(os.listdir()) == ["cfg.json", "out"]


# The default packet's base gaps at c = 10 and c = 640, from mpmath at 40
# digits over the same coefficients (mpmath is not a dependency).
@pytest.mark.parametrize("units, base_gap", [({"c": 10.0}, 2.501626607374066e-08),
                                             ({"c": 640.0}, 6.107659927291219e-12)])
def test_nonrel_limit_gap_matches_a_40_digit_reference(tmp_path, units, base_gap):
    results = run_scenario(validate_config(_config_text(NR, units=units)), tmp_path,
                           "csv").results
    assert results["gaps"]["base"]["l2_gap"] == pytest.approx(base_gap, rel=1e-14, abs=0.0)
    assert round(results["gap_ratio"], 3) == 4.0


# The doubled system's KG+ phase omega t rounds by more than 1e-6 rad at
# these c, but nothing evolves in that system: the gaps are a closed form.
@pytest.mark.parametrize("c", [3e4, 4e4])
def test_nonrel_limit_validates_and_runs_at_large_c(tmp_path, monkeypatch, c):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(_config_text(NR, units={"c": c}))
    assert _cli(["validate", "cfg.json"])[0] == 0
    assert _cli(["run", "cfg.json", "--out", "out", "--quiet"])[0] == 0
    results = json.loads(Path("out/nonrel-limit_run.json").read_text())["results"]
    assert abs(results["gap_ratio"] - 4.0) <= 1e-6


# With c up to 2.5e4 the times rule admits every t up to 10.
@settings(deadline=None)  # each example writes files
@given(c=st.floats(40.0, 2.5e4), k0=st.floats(-1.0, 1.0), sigma=st.floats(5.0, 20.0),
       t=st.floats(1.0, 10.0))
def test_nonrel_limit_gap_falls_as_the_square_of_c(c, k0, sigma, t):
    config = _cfg(NR, units={"c": c}, state={"packet": {"x0": 0.0, "k0": k0, "sigma": sigma}},
                  times=[t])
    with tempfile.TemporaryDirectory() as tmp:
        results = run_scenario(validate_config(json.dumps(config)), Path(tmp), "csv").results
    assert abs(results["gap_ratio"] - 4.0) <= 0.01


@laws
@given(times=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4).filter(
    lambda times: max(map(abs, times)) >= 1.0), data=st.data())
def test_nonrel_limit_reads_its_gaps_at_the_time_farthest_from_0(times, data):
    # Whatever the order of the list, results.t is an entry of largest |t|,
    # and the gaps, even in t, are the same.
    order = data.draw(st.permutations(times))
    first, second = (_compute(validate_config(_config_text(NR, times=ts)))[2]
                     for ts in (times, order))
    for results in (first, second):
        assert results["t"] in times and abs(results["t"]) == max(map(abs, times))
    assert (first["gaps"], first["gap_ratio"]) == (second["gaps"], second["gap_ratio"])


@pytest.mark.parametrize("argv", [
    ["validate", "cfg.json", "--out", "x"],
    [],
    ["run"],
    ["run", "cfg.json", "--format", "xml"],
    ["run", "cfg.json", "--out", ""],
    ["bogus"],
    ["run", "c\x00.json"],
    ["validate", "c\x00.json"],
    ["run", "c.json", "--out", "a\x00b"],
], ids=["unknown-option", "no-command", "no-config", "bad-format", "empty-out",
        "unknown-command", "nul-in-run-config", "nul-in-validate-config", "nul-in-out"])
def test_usage_errors_exit_2_with_one_json_record(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("kg-lab")
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: kg-lab" in capsys.readouterr().out


def test_console_script_smoke():
    # The installed console script when it is on PATH, else the same entry
    # point through the interpreter, importing the kg_lab these tests import.
    if shutil.which("kg-lab"):
        argv, env = ["kg-lab"], None
    else:
        argv = [sys.executable, "-m", "kg_lab.cli"]
        env = {**os.environ, "PYTHONPATH": str(Path(kg_lab.__file__).parents[1])}
    proc = subprocess.run(argv + ["scenarios"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "packet-continuity" in proc.stdout


# Small grids: (n, length), one of them with integer lattice wavenumbers.
SMALL_GRIDS = [(8, 10.0), (16, 2.0 * math.pi * 4.0), (32, 50.0)]


@st.composite
def mode_selectors(draw, n, length):
    """An index or k selector of lattice index j: mostly a few central j, so
    that entries collide, else j at or beyond the lattice's ends; k on the
    lattice, off it by rounding, or off it by a fraction of a step."""
    half = n // 2
    j = draw(st.one_of(st.integers(-1, 1), st.sampled_from([-half - 1, -half, half - 1, half])))
    if draw(st.booleans()):
        return {"index": j}
    step = 2.0 * math.pi / length
    return {"k": j * step + draw(st.sampled_from([0.0, 1e-13, -1e-12, 0.3 * step]))}


@st.composite
def state_blocks(draw):
    """A config whose state block is a one-entry modes list (branch-demo's
    plane wave), a modes list or a two_mode pair on a small grid."""
    n, length = draw(st.sampled_from(SMALL_GRIDS))
    name = draw(st.sampled_from(["branch-demo", "superposition-scan", "two-mode"]))
    if name == "branch-demo":
        form, block = "modes", [{"amplitude_re": 1.0, **draw(mode_selectors(n, length))}]
    elif name == "superposition-scan":
        form = "modes"
        selectors = draw(st.lists(mode_selectors(n, length), min_size=1, max_size=3))
        if draw(st.booleans()):  # a twin of the first entry: its index in the other form
            step, first = 2.0 * math.pi / length, selectors[0]
            selectors.append({"k": first["index"] * step + 1e-13} if "index" in first
                             else {"index": round(first["k"] / step)})
        raw = draw(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                            min_size=len(selectors), max_size=len(selectors)))
        if draw(st.sampled_from([True, True, False])):  # unit norm, else as drawn
            scale = math.sqrt(sum(abs(a) ** 2 for a in raw))
            raw = [a / scale for a in raw]
        block = [{"amplitude_re": a.real, "amplitude_im": a.imag, **sel}
                 for a, sel in zip(raw, selectors)]
    else:
        form = "two_mode"
        a1_sq = draw(st.floats(0.05, 0.95))
        block = {"a1_sq": a1_sq, "a2_sq": 1.0 - a1_sq,
                 "omega1": draw(st.floats(1.0, 3.0)), "omega2": draw(st.floats(1.0, 3.0))}
    return {"scenario": name, "grid": {"n": n, "length": length}, "state": {form: block},
            "times": [0.0, 1.0]}


@settings(deadline=None)  # each example writes files
@given(state_blocks())
def test_validate_and_run_agree_on_every_state_block(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        validated = _cli(["validate", str(cfg_path)])
        ran = _cli(["run", str(cfg_path), "--out", str(Path(tmp) / "out"), "--quiet"])
        if config["scenario"] == "superposition-scan" and ran[0] == 0:
            out = Path(tmp) / "out"
            run = json.loads((out / "superposition-scan_run.json").read_text())
            rho = np.loadtxt(out / "superposition-scan_fields.csv", delimiter=",", skiprows=1,
                             usecols=FIELD_COLUMNS.index("rho_kg"))
            assert run["results"]["amplitude_vs_state_max_diff"] <= 1e-10 * np.max(np.abs(rho))
    assert validated[0] == ran[0]
    for result in (validated, ran):
        _assert_exit_record(*result)


def _numeric_leaves(node, path=()):
    """The paths to the int and float leaves of a parsed JSON config."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _numeric_leaves(value, path + (key,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


# Extremes for one number: an integer past the float mantissa, up to past
# the float range, the largest and smallest float magnitudes, zero, or a
# negative. The integers start at 2**53 because a grid.n that is a smaller
# power of two would be allocated for real; the subprocess test above runs
# such a grid under an address-space limit.
EXTREME_NUMBERS = st.one_of(st.integers(2**53, 10**400), st.integers(-10**400, -1),
                            st.sampled_from([1e308, -1e308, 5e-324, 0, 0.0]))


def _extreme_leaves():
    pairs = []
    for name in scenario_names():
        leaves = _numeric_leaves(default_config(name))
        leaves += [(*path[:-1], "k") for path in leaves if path[-1] == "index"]
        pairs += [(name, path) for path in leaves]
    return pairs


EXTREME_LEAVES = _extreme_leaves()


@st.composite
def extreme_configs(draw):
    """A scenario's default config with one numeric leaf set to an extreme,
    each (scenario, leaf) pair equally likely. A mode entry's index is also
    drawn as a k selector in its place."""
    name, (*parents, last) = draw(st.sampled_from(EXTREME_LEAVES))
    config = default_config(name)
    node = config
    for key in parents:
        node = node[key]
    if last == "k":
        del node["index"]
    node[last] = draw(EXTREME_NUMBERS)
    return config


# An example takes a millisecond or two; 500 of them, about five for each
# of the 94 (scenario, leaf) pairs, reach the rarer leaves, a mode's
# amplitude, its k or the box length, under every seed tried.
@settings(deadline=None, max_examples=500)
@given(extreme_configs())
def test_validate_meets_any_extreme_number_with_an_exit_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _cli(["validate", str(cfg_path)])
    assert caught == []
    assert code in (0, 2, 3, 4)
    _assert_exit_record(code, out, err)
