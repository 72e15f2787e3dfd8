import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from kg_lab import BandwidthError, ConfigError
from kg_lab.cli import main
import kg_lab.scenarios
from kg_lab.scenarios import (
    FIELD_COLUMNS,
    SUMMARY_COLUMNS,
    default_config,
    run_scenario,
    scenario_names,
    validate_config,
)


def _config_text(name, **overrides):
    cfg = {"scenario": name}
    cfg.update(overrides)
    return json.dumps(cfg)


SMALL = dict(
    grid={"n": 512, "length": 200.0},
    state={"packet": {"x0": 0.0, "k0": 3.0, "sigma": 8.0}},
    times=[0.0, 5.0],
)


def test_defaults_fill_in():
    cfg = validate_config(_config_text("packet-continuity"))
    assert cfg.scenario == "packet-continuity"
    assert cfg.resolved == default_config("packet-continuity")
    assert cfg.times == tuple(default_config("packet-continuity")["times"])
    assert cfg.packet.sigma == 10.0
    assert cfg.fmt == "csv"


def test_catalog_is_not_mutated_by_overrides():
    before = json.dumps(default_config("gamma-density"), sort_keys=True, default=str)
    validate_config(_config_text("gamma-density", times=[1.0]))
    assert json.dumps(default_config("gamma-density"), sort_keys=True, default=str) == before


def test_every_catalog_default_validates():
    for name in scenario_names():
        cfg = validate_config(json.dumps(default_config(name)))
        assert cfg.scenario == name


def test_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        validate_config(_config_text("does-not-exist"))
    with pytest.raises(ConfigError, match="scenario"):
        validate_config(json.dumps({"grid": {"n": 16}}))


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(_config_text("packet-continuity", bogus=1))
    with pytest.raises(ConfigError, match=r"grid\.dx"):
        validate_config(_config_text("packet-continuity", grid={"dx": 0.1}))
    with pytest.raises(ConfigError, match=r"state\.packet\.width"):
        validate_config(_config_text("packet-continuity",
                                     state={"packet": {"width": 3.0}}))


def test_bad_json_reports_position():
    with pytest.raises(ConfigError, match="line 1"):
        validate_config("{not json")
    with pytest.raises(ConfigError, match="top-level object"):
        validate_config("[1, 2]")


def test_grid_and_units_validation():
    with pytest.raises(ConfigError, match="grid"):
        validate_config(_config_text("packet-continuity", grid={"n": 1000}))
    with pytest.raises(ConfigError, match="units"):
        validate_config(_config_text("packet-continuity", units={"m": -1.0}))


def test_times_and_dt_validation():
    with pytest.raises(ConfigError, match="times"):
        validate_config(_config_text("packet-continuity", times=[]))
    with pytest.raises(ConfigError, match="dt_continuity"):
        validate_config(_config_text("packet-continuity", dt_continuity=0.0))
    with pytest.raises(ConfigError, match="format"):
        validate_config(_config_text("packet-continuity", format="xml"))


def test_packet_support_violation_is_bandwidth():
    with pytest.raises(BandwidthError):
        validate_config(_config_text("packet-continuity",
                                     state={"packet": {"sigma": 40.0}}))


def test_mode_entry_validation():
    with pytest.raises(BandwidthError, match="outside the open lattice range"):
        validate_config(_config_text("branch-demo", state={"mode": {"index": 256}}))
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(_config_text("branch-demo", state={"mode": {"index": 3, "k": 1.0}}))
    with pytest.raises(BandwidthError):
        validate_config(_config_text("superposition-scan",
                                     state={"modes": [{"amplitude_re": 1.0, "k": 0.1234}]}))
    with pytest.raises(ConfigError, match="unitarity"):
        validate_config(_config_text("superposition-scan",
                                     state={"modes": [{"amplitude_re": 0.5, "index": 3}]}))
    # On-lattice k is accepted and normalized into the resolved config.
    k = 2.0 * math.pi * 5 / 400.0
    cfg = validate_config(_config_text("superposition-scan",
                                       state={"modes": [{"amplitude_re": 1.0, "k": k}]}))
    entry = cfg.resolved["state"]["modes"][0]
    assert entry["amplitude_im"] == 0.0 and entry["k"] == k
    assert len(cfg.modes.modes) == 1


def test_two_mode_validation():
    with pytest.raises(ConfigError, match="unitarity"):
        validate_config(_config_text("two-mode",
                                     state={"two_mode": {"a1_sq": 0.5, "a2_sq": 0.2}}))
    with pytest.raises(ConfigError, match="rest frequency"):
        validate_config(_config_text("two-mode",
                                     state={"two_mode": {"omega1": 0.2}}))
    with pytest.raises(ConfigError, match="c_factor"):
        validate_config(_config_text("nonrel-limit", c_factor=1.0))


def test_run_writes_expected_files(tmp_path):
    cfg = validate_config(_config_text("gamma-density", **SMALL),
                          output_override=str(tmp_path))
    result = run_scenario(cfg)
    names = sorted(p.name for p in result.files)
    assert names == ["gamma-density_fields.csv", "gamma-density_run.json",
                     "gamma-density_summary.csv"]
    fields = (tmp_path / "gamma-density_fields.csv").read_text().splitlines()
    assert fields[0] == ",".join(FIELD_COLUMNS)
    assert len(fields) == 1 + 512 * 2  # header + n rows per sample time
    summary = (tmp_path / "gamma-density_summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary) == 3

    meta = json.loads((tmp_path / "gamma-density_run.json").read_text())
    assert meta["scenario"] == "gamma-density"
    assert meta["config"]["grid"]["n"] == 512
    assert meta["config"]["output"] == str(tmp_path)  # overrides are echoed
    assert set(meta["derived"]) == {"dt_continuity", "gamma_bar", "gamma_spread",
                                    "gamma_spread_flag"}
    assert meta["results"]["density_vs_gamma"][0]["max_rel_deviation"] < 1e-2


def test_run_json_format(tmp_path):
    cfg = validate_config(_config_text("gamma-density", **SMALL),
                          output_override=str(tmp_path), format_override="json")
    result = run_scenario(cfg)
    names = sorted(p.name for p in result.files)
    assert names == ["gamma-density_fields.json", "gamma-density_run.json",
                     "gamma-density_summary.json"]
    payload = json.loads((tmp_path / "gamma-density_fields.json").read_text())
    block = payload["fields"][0]
    assert len(block["x"]) == 512
    assert set(FIELD_COLUMNS[2:]) <= set(block)
    summary = json.loads((tmp_path / "gamma-density_summary.json").read_text())
    assert [row["t"] for row in summary["summary"]] == [0.0, 5.0]


def test_branch_demo_writes_both_branches(tmp_path):
    cfg = validate_config(_config_text("branch-demo"), output_override=str(tmp_path))
    result = run_scenario(cfg)
    names = {p.name for p in result.files}
    assert names == {
        "branch-demo_positive_fields.csv", "branch-demo_positive_summary.csv",
        "branch-demo_negative_fields.csv", "branch-demo_negative_summary.csv",
        "branch-demo_run.json",
    }
    ratios = result.results["branches"]
    assert ratios["positive"]["density_ratio_mean"][0] == pytest.approx(1.25, abs=1e-12)
    assert ratios["negative"]["density_ratio_mean"][0] == pytest.approx(-1.25, abs=1e-12)


def test_run_is_deterministic(tmp_path):
    text = _config_text("gamma-density", **SMALL)
    cfg = validate_config(text, output_override=str(tmp_path))
    files = run_scenario(cfg).files
    first = {p.name: p.read_bytes() for p in files}
    files = run_scenario(validate_config(text, output_override=str(tmp_path))).files
    second = {p.name: p.read_bytes() for p in files}
    assert first == second


def test_cli_run_and_validate(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_text("gamma-density", **SMALL))
    out_dir = tmp_path / "out"

    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "scenario: gamma-density" in text
    assert "wrote" in text
    assert (out_dir / "gamma-density_run.json").exists()

    assert main(["run", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    assert capsys.readouterr().out == ""

    assert main(["validate", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("OK: gamma-density")


def test_cli_scenarios_lists_catalog(capsys):
    assert main(["scenarios"]) == 0
    names = [line.split(":", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert names == scenario_names() == [
        "packet-continuity", "gamma-density", "amended", "branch-demo",
        "two-mode", "superposition-scan", "nonrel-limit"]


@pytest.mark.parametrize("config", [
    {"scenario": "packet-continuity", "units": {"m": 1e-300}},  # rest_omega**2 underflows
    {"scenario": "branch-demo", "units": {"c": 1e-200}},  # m*c**2 underflows
    {"scenario": "packet-continuity", "units": {"c": 1e200}},  # c**2 overflows
    {"scenario": "nonrel-limit", "units": {"c": 1e77}},  # overflows once c is doubled
])
def test_extreme_units_exit_as_config_errors(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert captured.out == ""


def test_validate_rejects_packet_that_fails_nyquist_check(tmp_path, capsys):
    # Inside the support rule, but the built state leaks 1.6e-10 > 1e-10 of
    # its norm into the Nyquist mode: validate must fail as run does.
    text = _config_text("packet-continuity",
                        state={"packet": {"x0": 48.0, "k0": 3.0, "sigma": 19.9}},
                        times=[0.0])
    with pytest.raises(BandwidthError, match="Nyquist"):
        validate_config(text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["validate", str(cfg_path)]) == 3
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 3


@pytest.mark.parametrize("two_mode_config", [
    {"units": {"c": 1e-160, "m": 1e160}},  # (omega/c)**2 overflows
    {"state": {"two_mode": {"omega1": 1e300}}},  # (omega/c)**2 overflows
    {"state": {"two_mode": {"omega1": 1.0, "omega2": 1.00001}}},  # one lattice mode
    {"state": {"two_mode": {"omega2": 1e6}}},  # k far beyond the Nyquist wavenumber
])
def test_validate_and_run_reject_unresolvable_two_mode(tmp_path, capsys, two_mode_config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "two-mode", **two_mode_config}))
    for argv in (["validate", str(cfg_path)],
                 ["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BandwidthError"
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


# One catalog run evolves each (state, t) sample once: the sample time and
# t -/+ dt_continuity per sample time and series, plus nonrel-limit's four
# strip-time evolves.
EVOLVE_CALLS = {
    "packet-continuity": 18,
    "gamma-density": 3,
    "amended": 3,
    "branch-demo": 6,
    "two-mode": 3,
    "superposition-scan": 9,
    "nonrel-limit": 7,
}


@pytest.mark.parametrize("name", scenario_names())
def test_each_sample_is_evolved_once(tmp_path, monkeypatch, name):
    calls = []
    evolve = kg_lab.scenarios.evolve

    def counting_evolve(state, t):
        calls.append(t)
        return evolve(state, t)

    monkeypatch.setattr(kg_lab.scenarios, "evolve", counting_evolve)
    run_scenario(validate_config(json.dumps(default_config(name)),
                                 output_override=str(tmp_path)))
    assert len(calls) == EVOLVE_CALLS[name]


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(_config_text("packet-continuity", bogus=1))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert "bogus" in record["message"]

    support = tmp_path / "support.json"
    support.write_text(_config_text("packet-continuity",
                                    state={"packet": {"sigma": 40.0}}))
    assert main(["validate", str(support)]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "BandwidthError"

    assert main(["run", str(tmp_path / "missing.json")]) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "FileNotFoundError"


def test_cli_format_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_text("gamma-density", **SMALL))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--format", "json",
                 "--quiet"]) == 0
    capsys.readouterr()
    assert (out_dir / "gamma-density_fields.json").exists()
    assert not (out_dir / "gamma-density_fields.csv").exists()


@pytest.mark.skipif(shutil.which("kg-lab") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(["kg-lab", "scenarios"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "packet-continuity" in proc.stdout


def test_summary_metadata_floats_are_full_precision(tmp_path):
    cfg = validate_config(_config_text("gamma-density", **SMALL),
                          output_override=str(tmp_path))
    run_scenario(cfg)
    meta = (tmp_path / "gamma-density_run.json").read_text()
    gamma = json.loads(meta)["derived"]["gamma_bar"]
    # 17 significant digits round-trip doubles exactly.
    assert f"{gamma:.17g}" in meta
    assert np.isfinite(gamma)
