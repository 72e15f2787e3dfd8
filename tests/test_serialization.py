"""The catalog's output contract, and float text against a per-value reference.

The writers format whole float arrays at once and stream them to their file
chunk by chunk; the reference formats one value at a time with
format(x, ".17g") and spells non-finite values NaN, Infinity and -Infinity.
A single number (a JSON record's t, a summary value) is json.dumps text in
both. The two must agree byte for byte, for tables of one chunk and of
several.

Every default config is run once per format through kg-lab run: each run meets
one output law, and all outputs must match the SHA-256 manifest catalog_sha256.json,
which `PYTHONPATH=src python tests/test_serialization.py` regenerates.
"""
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kg_lab import (__version__, cli, compute_fields, evolve, from_coefficients,
                    superposition_density, unphysical_negative_branch)
from kg_lab._floattext import _CHUNK_VALUES
from kg_lab.scenarios import (
    FIELD_COLUMNS,
    SUMMARY_COLUMNS,
    ObservableSeries,
    _compute,
    _csv,
    _series_files,
    _write_file,
    default_config,
    run_scenario,
    scenario_names,
    validate_config,
)
from strategies import notation_tables

_EDGE_VALUES = [
    math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
]
floats64 = st.one_of(st.floats(width=64), st.sampled_from(_EDGE_VALUES))
GRID_N = 8


def _table(columns, times):
    """A random table of `times` samples: fields blocks on the grid, or summary rows."""
    shape = (times, GRID_N, len(columns)) if columns is FIELD_COLUMNS else (times, len(columns))
    return hnp.arrays(np.float64, shape, elements=floats64)


def _with_block_times(fields):
    fields[:, :, 0] = fields[:, :1, 0]  # a fields block holds one sample time
    return fields


# A table of a few samples, or a fields or summary table of more than one
# chunk, in every notation.
tables = st.one_of(
    st.tuples(st.sampled_from([FIELD_COLUMNS, SUMMARY_COLUMNS]), st.integers(1, 3)).flatmap(
        lambda drawn: st.tuples(st.just(drawn[0]), _table(*drawn))),
    st.sampled_from([FIELD_COLUMNS, SUMMARY_COLUMNS]).flatmap(
        lambda columns: st.tuples(st.just(columns),
                                  notation_tables(len(columns), _CHUNK_VALUES))))
# A series of a few samples, or of one sample whose fields columns each hold
# more than one chunk in every notation.
series_strategy = st.one_of(
    st.integers(1, 3).flatmap(lambda times: st.builds(
        ObservableSeries, _table(FIELD_COLUMNS, times).map(_with_block_times),
        _table(SUMMARY_COLUMNS, times))),
    st.builds(ObservableSeries, notation_tables(1, _CHUNK_VALUES).map(
        lambda column: _with_block_times(np.repeat(column[None], len(FIELD_COLUMNS), axis=2))),
        _table(SUMMARY_COLUMNS, 1)))


def _ref(x):
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _ref_array(values):
    return "[" + ", ".join(_ref(v) for v in values) + "]"


def _ref_csv(table, columns):
    lines = [",".join(columns)]
    lines += [",".join(_ref(v) for v in table[at]) for at in np.ndindex(table.shape[:-1])]
    return "\n".join(lines) + "\n"


def _ref_fields_json(fields):
    records = []
    for block in fields:
        cols = {"t": json.dumps(float(block[0, 0])),
                **{name: _ref_array(block[:, c]) for c, name in enumerate(FIELD_COLUMNS) if c}}
        records.append("    {\n" + ",\n".join(f'      "{k}": {cols[k]}' for k in sorted(cols)) + "\n    }")
    return '{\n  "fields": [\n' + ",\n".join(records) + "\n  ]\n}\n"


def _ref_summary_json(summary):
    records = []
    for row in summary:
        cols = dict(zip(SUMMARY_COLUMNS, map(float, row)))
        records.append("    {\n" + ",\n".join(f'      "{k}": {json.dumps(cols[k])}'
                                              for k in sorted(cols)) + "\n    }")
    return '{\n  "summary": [\n' + ",\n".join(records) + "\n  ]\n}\n"


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


def _written(out_dir, body):
    """The text of the file that the run's file writer writes from body."""
    path = out_dir / "file"
    _write_file(path, body)
    return path.read_text()


@given(tables)
def test_csv_matches_per_value_reference(out_dir, drawn):
    columns, table = drawn
    assert _written(out_dir, functools.partial(_csv, table, columns)) == _ref_csv(table, columns)


@given(series_strategy)
def test_series_json_matches_per_value_reference(out_dir, series):
    bodies = _series_files(series, "json")
    assert list(bodies) == ["fields", "summary"]
    assert _written(out_dir, bodies["fields"]) == _ref_fields_json(series.fields)
    assert _written(out_dir, bodies["summary"]) == _ref_summary_json(series.summary)


MANIFEST = Path(__file__).with_name("catalog_sha256.json")
REGENERATE = "PYTHONPATH=src python tests/test_serialization.py"
FORMATS = ("csv", "json")


def _run_catalog(root):
    """Run every default config once per format through kg-lab run, each to
    root/out/<format>/<scenario>. Returns root and each run's stdout and
    RunResult, by (scenario, format)."""
    returned, runs = [], {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_scenario",
                      lambda *args: returned.append(run_scenario(*args)) or returned[-1])
        for name in scenario_names():
            config = root / f"{name}.json"
            config.write_text(json.dumps({"scenario": name}))
            for fmt in FORMATS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    argv = ["run", str(config), "--out", str(root / "out" / fmt / name),
                            "--format", fmt]
                    if cli.main(argv):
                        raise RuntimeError(f"kg-lab {' '.join(argv)} failed")
                runs[name, fmt] = stdout.getvalue(), returned.pop()
    return root, runs


def _sha256(root):
    """The SHA-256 of each output of a catalog run in root, by <format>/<file name>."""
    return {f"{path.parts[-3]}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.glob("out/*/*/*")}


def _fingerprint():
    """What output bytes may depend on beyond kg_lab: numpy and its SIMD extensions."""
    return {"numpy": np.__version__, "simd": np.show_config(mode="dicts")["SIMD Extensions"]}


def _changes(old, new):
    """The <format>/<file name>s added, removed and changed from hashes old to new."""
    kinds = {"added": new.keys() - old.keys(), "removed": old.keys() - new.keys(),
             "changed": {name for name in old.keys() & new.keys() if old[name] != new[name]}}
    return [f"{kind}: {', '.join(sorted(names))}" for kind, names in kinds.items() if names]


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    return _run_catalog(tmp_path_factory.mktemp("catalog"))


def test_catalog_outputs_match_the_manifest(catalog):
    # The hashes are the contract. The fingerprint is a record: a host whose
    # numpy dispatches to other SIMD kernels may still write the same bytes,
    # and when it does not, the message names both fingerprints.
    manifest = json.loads(MANIFEST.read_text())
    changes = _changes(manifest["sha256"], _sha256(catalog[0]))
    assert not changes, (f"catalog outputs differ from {MANIFEST.name} ({'; '.join(changes)}); "
                         f"it was written under {manifest['fingerprint']}, this host has "
                         f"{_fingerprint()}; a declared output change regenerates it with "
                         f"{REGENERATE}")


def _bits(node):
    """A JSON value with each float as its hex text, so that == compares
    floats bit for bit and a float never equals an int."""
    if isinstance(node, (dict, list, tuple)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {key: _bits(value) for key, value in items}
    return node.hex() if isinstance(node, float) else node


def _read_back(fields_path, summary_path, fmt):
    """A run's written fields blocks and summary rows, parsed back to floats:
    a {column: values} dict per sample time."""
    if fmt == "json":
        blocks = json.loads(fields_path.read_text())["fields"]
        return ([{name: np.array(values) for name, values in block.items()} for block in blocks],
                json.loads(summary_path.read_text())["summary"])
    (names, *fields), (columns, *rows) = (
        [line.split(",") for line in path.read_text().splitlines()]
        for path in (fields_path, summary_path))
    fields = np.array(fields, dtype=object).astype(np.float64).reshape(len(rows), -1, len(names))
    return ([dict(zip(names, block.T)) for block in fields],
            [dict(zip(columns, map(float, row))) for row in rows])


def _max_rel_deviation(sample, meta):
    rho = sample["rho_nonrel"]
    mask = rho >= meta["results"]["mask_threshold"] * rho.max()
    return np.abs(sample["rho_kg"][mask] / (meta["derived"]["gamma_bar"] * rho[mask]) - 1.0).max()


def _peak_velocity(sample, meta):
    peak = np.argmax(sample["rho_amended"])
    return sample["j_amended"][peak] / sample["rho_amended"][peak]


def _per_sample(rebuild):
    """A rebuild of one value per sample, from each sample and _run.json."""
    return lambda samples, meta, config: [rebuild(sample, meta) for sample in samples]


def _amplitude_vs_state_max_diff(samples, meta, config):
    # The largest gap over the sample times, so that a smallest one differs:
    # on the default config the per-t gaps are 5.9e-17, 6.6e-17 and 1.03e-16.
    return max(np.abs(superposition_density(config.modes, t, config.grid, config.units).rho
                      - sample["rho_kg"]).max() for sample, t in zip(samples, config.times))


# The results read off the fields, by scenario: the reported value of one
# series, by its label, and that value rebuilt from the series' samples,
# _run.json and the config.
RESULTS_FROM_FIELDS = {
    "gamma-density": (lambda results, label: [row["max_rel_deviation"]
                                              for row in results["density_vs_gamma"]],
                      _per_sample(_max_rel_deviation)),
    "amended": (lambda results, label: [row["peak_velocity"]
                                        for row in results["amended_reduction"]],
                _per_sample(_peak_velocity)),
    "branch-demo": (lambda results, label: results["branches"][label]["density_ratio_mean"],
                    _per_sample(lambda sample, meta: np.mean(sample["rho_kg"]
                                                             / sample["rho_nonrel"]))),
    "superposition-scan": (lambda results, label: results["amplitude_vs_state_max_diff"],
                           _amplitude_vs_state_max_diff),
}


def _assert_dropped_columns_rebuild(config, label, blocks, rows, meta):
    # The fields the tables leave out rebuild bit for bit from a series'
    # fields blocks and summary rows: psi*psi from re_psi and im_psi, and the
    # amended pair from rho_kg and j_std over the gamma_bar of the summary row
    # at the same t. So do the results read off them, from those fields and
    # the run's derived and results blocks.
    state = config.state if label != "negative" else from_coefficients(
        config.grid, config.units, unphysical_negative_branch(), config.state.coefficients)
    gamma_bar = {row["t"]: row["gamma_bar"] for row in rows}
    assert len(blocks) == len(rows) == len(config.times)
    samples = []
    for block, t in zip(blocks, config.times):
        assert (block["t"] == t).all()
        library = compute_fields(evolve(state, t))
        rebuilt = {"rho_nonrel": block["re_psi"] ** 2 + block["im_psi"] ** 2,
                   "rho_amended": block["rho_kg"] / gamma_bar[t],
                   "j_amended": block["j_std"] / gamma_bar[t]}
        for name, values in rebuilt.items():
            bits = values.view(np.uint64), getattr(library, name).view(np.uint64)
            assert np.array_equal(*bits), (label, t, name)
        if label == "negative":
            assert np.isnan(rebuilt["rho_amended"]).all() and np.isnan(rebuilt["j_amended"]).all()
        samples.append({**block, **rebuilt})
    if config.scenario in RESULTS_FROM_FIELDS:
        reported, rebuild = RESULTS_FROM_FIELDS[config.scenario]
        assert _bits(reported(meta["results"], label)) == \
            _bits(rebuild(samples, meta, config)), label


@pytest.mark.parametrize("name", scenario_names())
def test_catalog_outputs_match_per_value_reference(catalog, tmp_path, name):
    # The output law of each format's run: a fields and a summary file per series,
    # then _run.json, each named on stdout; each table the per-value text of the
    # array the run returned; _run.json the default config, the same bytes in
    # both formats and wherever the run writes.
    root, runs = catalog
    config = validate_config(json.dumps({"scenario": name}))
    times = config.times
    run_json = {}
    for fmt in FORMATS:
        stdout, result = runs[name, fmt]
        out = root / "out" / fmt / name
        stems = [name if label == "main" else f"{name}_{label}" for label in result.series]
        files = [out / f"{stem}_{table}.{fmt}" for stem in stems for table in ("fields", "summary")]
        assert result.files == files + [out / f"{name}_run.json"]
        assert sorted(os.listdir(out)) == sorted(path.name for path in result.files)
        assert stdout.startswith(f"scenario: {name}\n")
        assert stdout.endswith("".join(f"wrote {path}\n" for path in result.files))

        run_json[fmt] = (out / f"{name}_run.json").read_bytes()
        meta = json.loads(run_json[fmt])
        for i, (label, series) in enumerate(result.series.items()):
            fields, summary = series.fields, series.summary
            assert fields.dtype == summary.dtype == np.float64
            assert fields.shape == (len(times), config.grid.n, len(FIELD_COLUMNS))
            assert summary.shape == (len(times), len(SUMMARY_COLUMNS))
            # Each block holds its sample time and the grid; the summary, the times.
            assert (fields[:, :, 0].T == times).all()
            assert (fields[:, :, 1] == config.grid.points).all()
            assert (summary[:, 0] == times).all()
            if fmt == "csv":
                refs = _ref_csv(fields, FIELD_COLUMNS), _ref_csv(summary, SUMMARY_COLUMNS)
            else:
                refs = _ref_fields_json(fields), _ref_summary_json(summary)
            assert tuple(path.read_text() for path in files[2 * i:2 * i + 2]) == refs
            _assert_dropped_columns_rebuild(
                config, label, *_read_back(*files[2 * i:2 * i + 2], fmt), meta)

        assert _bits(meta) == _bits({
            "scenario": name, "version": __version__, "config": default_config(name),
            "derived": result.derived, "results": result.results})

    assert run_json["csv"] == run_json["json"]
    elsewhere = tmp_path / "an" / "out" / "of" / "another" / "length"
    assert len(str(elsewhere)) != len(str(root / "out" / "csv" / name))
    run_scenario(config, elsewhere, "csv")
    assert (elsewhere / f"{name}_run.json").read_bytes() == run_json["csv"]


def test_run_json_keeps_the_type_and_sign_of_every_float(tmp_path):
    config = validate_config(json.dumps({"scenario": "packet-continuity",
                                         "state": {"packet": {"x0": -0.0}}}))
    run_scenario(config, tmp_path, "csv")
    meta = json.loads((tmp_path / "packet-continuity_run.json").read_text())
    x0, length = meta["config"]["state"]["packet"]["x0"], meta["config"]["grid"]["length"]
    assert type(x0) is float and math.copysign(1.0, x0) == -1.0
    assert type(length) is float and length == 400.0


@settings(deadline=None)  # each example runs a scenario
@given(name=st.sampled_from(["gamma-density", "amended"]), reach=st.floats(-1.0, 1.0),
       k0=st.floats(-3.0, 3.0), sigma=st.floats(0.5, 10.0),
       times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3))
def test_results_rebuild_from_the_tables_of_drawn_packets(name, reach, k0, sigma, times):
    # The same law on a run's own tables, for packets down to half a unit
    # wide, where the peaks of rho_amended and psi*psi can fall on
    # neighbouring points. x0 keeps the packet 9.7 sigma from the seam, inside
    # the support rule's 9.6.
    packet = {"x0": reach * (200.0 - 9.7 * sigma), "k0": k0, "sigma": sigma}
    config = validate_config(json.dumps({"scenario": name, "state": {"packet": packet},
                                         "times": times}))
    series, derived, results = _compute(config)
    blocks = [dict(zip(FIELD_COLUMNS, block.T)) for block in series["main"].fields]
    rows = [dict(zip(SUMMARY_COLUMNS, row)) for row in series["main"].summary.tolist()]
    _assert_dropped_columns_rebuild(config, "main", blocks, rows,
                                    {"derived": derived, "results": results})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_a_series_holds_no_file_text_whole(fmt, tmp_path):
    # Each file is streamed to disk chunk by chunk, so the memory a series
    # takes to write does not grow with its text: 16 blocks of 4096 rows
    # (more than 5 MiB of fields text) peak within 1 MiB of 1 block.
    rng = np.random.default_rng(17)

    def peak(times):
        series = ObservableSeries(rng.standard_normal((times, 4096, len(FIELD_COLUMNS))),
                                  rng.standard_normal((times, len(SUMMARY_COLUMNS))))
        tracemalloc.start()
        try:
            for name, body in _series_files(series, fmt).items():
                _write_file(tmp_path / f"{name}.{fmt}", body)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # builds the formatting tables, which are kept
    one, many = peak(1), peak(16)
    assert (tmp_path / f"fields.{fmt}").stat().st_size > 5 * 2**20
    assert many - one < 2**20


if __name__ == "__main__":
    # Regenerate the manifest from a catalog run, and name the files it changed.
    with tempfile.TemporaryDirectory() as tmp:
        hashes = _sha256(_run_catalog(Path(tmp))[0])
    old = json.loads(MANIFEST.read_text())["sha256"] if MANIFEST.exists() else {}
    MANIFEST.write_text(json.dumps({"fingerprint": _fingerprint(), "sha256": hashes},
                                   indent=2, sort_keys=True) + "\n")
    print("\n".join(_changes(old, hashes)) or "no output changed")
