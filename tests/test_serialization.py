"""Float text of the scenario writers against a per-value reference.

The writers format whole tables at once and stream them to their file chunk
by chunk; the reference formats one value at a time with format(x, ".17g")
and spells non-finite values NaN, Infinity and -Infinity. The two must agree
byte for byte, for tables of one chunk and of several.
"""
import functools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from kg_lab._floattext import _CHUNK_VALUES
from kg_lab.scenarios import (
    FIELD_COLUMNS,
    SUMMARY_COLUMNS,
    ObservableSeries,
    _csv,
    _dump,
    _series_files,
    _write_file,
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


def _assert_json_matches(series, out_dir):
    bodies = _series_files(series, "json")
    assert list(bodies) == ["fields", "summary"]
    assert _written(out_dir, bodies["fields"]) == _ref_fields_json(series.fields)
    assert _written(out_dir, bodies["summary"]) == _ref_summary_json(series.summary)


@given(arrays)
def test_json_array_matches_per_value_reference(out_dir, values):
    assert _written(out_dir, functools.partial(_dump, values)) == _ref_array(values)


@given(tables)
def test_csv_matches_per_value_reference(out_dir, drawn):
    columns, table = drawn
    assert _written(out_dir, functools.partial(_csv, table, columns)) == _ref_csv(table, columns)


@given(series_strategy)
def test_series_json_matches_per_value_reference(out_dir, series):
    _assert_json_matches(series, out_dir)


def test_branch_demo_negative_series_matches_per_value_reference(tmp_path):
    cfg = validate_config(json.dumps({"scenario": "branch-demo"}), output_override=str(tmp_path))
    series = run_scenario(cfg).series["negative"]
    amended = [FIELD_COLUMNS.index(name) for name in ("rho_amended", "j_amended")]
    assert np.isnan(series.fields[:, :, amended]).all()
    fields = (tmp_path / "branch-demo_negative_fields.csv").read_text()
    assert fields == _ref_csv(series.fields, FIELD_COLUMNS)
    summary = (tmp_path / "branch-demo_negative_summary.csv").read_text()
    assert "NaN" in summary
    assert summary == _ref_csv(series.summary, SUMMARY_COLUMNS)
    _assert_json_matches(series, tmp_path)


@pytest.mark.parametrize("name", scenario_names())
def test_catalog_outputs_match_per_value_reference(name, tmp_path):
    cfg = validate_config(json.dumps({"scenario": name}), output_override=str(tmp_path))
    result = run_scenario(cfg)
    for label, series in result.series.items():
        stem = name if label == "main" else f"{name}_{label}"
        fields, summary = series.fields, series.summary
        assert fields.dtype == summary.dtype == np.float64
        assert fields.shape == (len(cfg.times), cfg.grid.n, len(FIELD_COLUMNS))
        assert summary.shape == (len(cfg.times), len(SUMMARY_COLUMNS))
        # Each block holds its sample time and the grid; the summary, the times.
        assert (fields[:, :, 0] == np.array(cfg.times)[:, None]).all()
        assert (fields[:, :, 1] == cfg.grid.points).all()
        assert (summary[:, 0] == cfg.times).all()
        assert (tmp_path / f"{stem}_fields.csv").read_text() == _ref_csv(fields, FIELD_COLUMNS)
        assert (tmp_path / f"{stem}_summary.csv").read_text() == _ref_csv(summary, SUMMARY_COLUMNS)
        _assert_json_matches(series, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_a_series_holds_no_file_text_whole(fmt, tmp_path):
    # Each file is streamed to disk chunk by chunk, so the memory a series
    # takes to write does not grow with its text: 8 blocks of 4096 rows
    # (5 to 7 MB of fields text) peak within 1 MiB of 1 block.
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
    one, eight = peak(1), peak(8)
    assert (tmp_path / f"fields.{fmt}").stat().st_size > 5 * 2**20
    assert eight - one < 2**20
