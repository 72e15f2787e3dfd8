"""The catalog's output contract, and float text against a per-value reference.

The writers format whole tables at once and stream them to their file chunk
by chunk; the reference formats one value at a time with format(x, ".17g")
and spells non-finite values NaN, Infinity and -Infinity. The two must agree
byte for byte, for tables of one chunk and of several.

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
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from kg_lab import (__version__, cli, compute_fields, evolve, from_coefficients,
                    unphysical_negative_branch)
from kg_lab._floattext import _CHUNK_VALUES
from kg_lab.scenarios import (
    FIELD_COLUMNS,
    SUMMARY_COLUMNS,
    ObservableSeries,
    _csv,
    _dump,
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
arrays = st.one_of(hnp.arrays(np.float64, st.integers(0, 40), elements=floats64),
                   notation_tables(1, _CHUNK_VALUES).map(np.ravel))
series_strategy = st.integers(1, 3).flatmap(
    lambda times: st.builds(ObservableSeries, _table(FIELD_COLUMNS, times).map(_with_block_times),
                            _table(SUMMARY_COLUMNS, times)))


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
        cols = {"t": _ref(block[0, 0]),
                **{name: _ref_array(block[:, c]) for c, name in enumerate(FIELD_COLUMNS) if c}}
        records.append("    {\n" + ",\n".join(f'      "{k}": {cols[k]}' for k in sorted(cols)) + "\n    }")
    return '{\n  "fields": [\n' + ",\n".join(records) + "\n  ]\n}\n"


def _ref_summary_json(summary):
    records = []
    for row in summary:
        cols = dict(zip(SUMMARY_COLUMNS, row))
        records.append("    {\n" + ",\n".join(f'      "{k}": {_ref(cols[k])}' for k in sorted(cols))
                       + "\n    }")
    return '{\n  "summary": [\n' + ",\n".join(records) + "\n  ]\n}\n"


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


def _written(out_dir, body):
    """The text of the file that the run's file writer writes from body."""
    path = out_dir / "file"
    _write_file(path, body)
    return path.read_text()


@given(arrays)
def test_json_array_matches_per_value_reference(out_dir, values):
    assert _written(out_dir, functools.partial(_dump, values)) == _ref_array(values)


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
    """Run every default config once per format through kg-lab run in root, each
    to the relative out/<format>/<scenario> that _run.json echoes. Returns root
    and each run's stdout and RunResult, by (scenario, format)."""
    returned, runs = [], {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        patch.setattr(cli, "run_scenario",
                      lambda config: returned.append(run_scenario(config)) or returned[-1])
        for name in scenario_names():
            Path(f"{name}.json").write_text(json.dumps({"scenario": name}))
            for fmt in FORMATS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    argv = ["run", f"{name}.json", "--out", f"out/{fmt}/{name}", "--format", fmt]
                    if cli.main(argv):
                        raise RuntimeError(f"kg-lab {' '.join(argv)} failed")
                runs[name, fmt] = stdout.getvalue(), returned.pop()
    return root, runs


def _sha256(root):
    """The SHA-256 of each output of a catalog run in root, by <format>/<file name>."""
    return {f"{path.parts[-3]}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.glob("out/*/*/*")}


def _fingerprint():
    """What output bytes depend on beyond kg_lab: numpy and its SIMD extensions."""
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
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["fingerprint"] == _fingerprint(), (
        f"{MANIFEST.name} was written under {manifest['fingerprint']}, not {_fingerprint()}; "
        f"regenerate it with {REGENERATE}")
    changes = _changes(manifest["sha256"], _sha256(catalog[0]))
    assert not changes, (f"catalog outputs differ from {MANIFEST.name} ({'; '.join(changes)}); "
                         f"a declared output change regenerates it with {REGENERATE}")


def _bits(node):
    """A JSON value with each number as the hex text of its float, so that ==
    compares bit for bit. '%.17g' writes -0.0 as -0: parse with parse_int=float."""
    if isinstance(node, (dict, list, tuple)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {key: _bits(value) for key, value in items}
    number = isinstance(node, (int, float)) and not isinstance(node, bool)
    return float(node).hex() if number else node


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


def _assert_dropped_columns_rebuild(config, label, fields_path, summary_path, fmt):
    # The fields the tables leave out rebuild bit for bit from the written
    # text: psi*psi from re_psi and im_psi, and the amended pair from rho_kg
    # and j_std over the gamma_bar of the summary row at the same t.
    state = config.state if label != "negative" else from_coefficients(
        config.grid, config.units, unphysical_negative_branch(), config.state.coefficients)
    blocks, rows = _read_back(fields_path, summary_path, fmt)
    gamma_bar = {row["t"]: row["gamma_bar"] for row in rows}
    assert len(blocks) == len(rows) == len(config.times)
    for block, t in zip(blocks, config.times):
        assert (block["t"] == t).all()
        library = compute_fields(evolve(state, t))
        rebuilt = {"rho_nonrel": block["re_psi"] ** 2 + block["im_psi"] ** 2,
                   "rho_amended": block["rho_kg"] / gamma_bar[t],
                   "j_amended": block["j_std"] / gamma_bar[t]}
        for name, values in rebuilt.items():
            bits = values.view(np.uint64), getattr(library, name).view(np.uint64)
            assert np.array_equal(*bits), (label, fmt, t, name)
        if label == "negative":
            assert np.isnan(rebuilt["rho_amended"]).all() and np.isnan(rebuilt["j_amended"]).all()


@pytest.mark.parametrize("name", scenario_names())
def test_catalog_outputs_match_per_value_reference(catalog, name):
    # The output law of each format's run: a fields and a summary file per series,
    # then _run.json, each named on stdout; each table the per-value text of the
    # array the run returned; _run.json the config with the run's overrides.
    root, runs = catalog
    config = validate_config(json.dumps({"scenario": name}))
    times = config.times
    for fmt in FORMATS:
        stdout, result = runs[name, fmt]
        out = Path("out", fmt, name)
        stems = [name if label == "main" else f"{name}_{label}" for label in result.series]
        files = [out / f"{stem}_{table}.{fmt}" for stem in stems for table in ("fields", "summary")]
        assert result.files == files + [out / f"{name}_run.json"]
        assert sorted(os.listdir(root / out)) == sorted(path.name for path in result.files)
        assert stdout.startswith(f"scenario: {name}\n")
        assert stdout.endswith("".join(f"wrote {path}\n" for path in result.files))

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
            assert tuple((root / path).read_text() for path in files[2 * i:2 * i + 2]) == refs
            _assert_dropped_columns_rebuild(
                config, label, *(root / path for path in files[2 * i:2 * i + 2]), fmt)

        meta = json.loads((root / out / f"{name}_run.json").read_text(), parse_int=float)
        assert _bits(meta) == _bits({
            "scenario": name, "version": __version__,
            "config": {**default_config(name), "output": str(out), "format": fmt},
            "derived": result.derived, "results": result.results})


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
