"""Float text of the scenario writers against a per-value reference.

The writers format whole tables at once; the reference formats one value at
a time with format(x, ".17g") and spells non-finite values NaN, Infinity and
-Infinity. The two must agree byte for byte.
"""
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from kg_lab import make_grid
from kg_lab.scenarios import (
    FIELD_COLUMNS,
    SUMMARY_COLUMNS,
    _dumps,
    _fields_csv,
    _fields_json,
    _summary_json,
    run_scenario,
    scenario_names,
    validate_config,
)

_EDGE_VALUES = [
    math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
]
floats64 = st.one_of(st.floats(width=64), st.sampled_from(_EDGE_VALUES))
GRID = make_grid(8, 3.0)
blocks_strategy = st.lists(
    st.tuples(floats64, hnp.arrays(np.float64, (len(FIELD_COLUMNS) - 2, GRID.n), elements=floats64)),
    min_size=1, max_size=3,
).map(lambda drawn: [{"t": t, **dict(zip(FIELD_COLUMNS[2:], cols))} for t, cols in drawn])


def _ref(x):
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _ref_array(values):
    return "[" + ", ".join(_ref(v) for v in values) + "]"


def _ref_fields_csv(grid, blocks):
    lines = [",".join(FIELD_COLUMNS)]
    for block in blocks:
        columns = [grid.points.tolist()] + [block[name].tolist() for name in FIELD_COLUMNS[2:]]
        lines += [",".join(_ref(v) for v in (block["t"],) + row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def _ref_fields_json(grid, blocks):
    records = []
    for block in blocks:
        cols = {"t": _ref(block["t"]), "x": _ref_array(grid.points),
                **{name: _ref_array(block[name]) for name in FIELD_COLUMNS[2:]}}
        records.append("    {\n" + ",\n".join(f'      "{k}": {cols[k]}' for k in sorted(cols)) + "\n    }")
    return '{\n  "fields": [\n' + ",\n".join(records) + "\n  ]\n}\n"


def _ref_summary_csv(rows):
    lines = [",".join(SUMMARY_COLUMNS)]
    lines += [",".join(_ref(row[name]) for name in SUMMARY_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _ref_summary_json(rows):
    records = ["    {\n" + ",\n".join(f'      "{k}": {_ref(row[k])}' for k in sorted(row)) + "\n    }"
               for row in rows]
    return '{\n  "summary": [\n' + ",\n".join(records) + "\n  ]\n}\n"


@given(hnp.arrays(np.float64, st.integers(0, 40), elements=floats64))
def test_json_array_matches_per_value_reference(values):
    assert _dumps(values) == _ref_array(values)


@given(blocks_strategy)
def test_fields_csv_matches_per_value_reference(blocks):
    assert _fields_csv(GRID, blocks).decode() == _ref_fields_csv(GRID, blocks)


@given(blocks_strategy)
def test_fields_json_matches_per_value_reference(blocks):
    assert _fields_json(GRID, blocks).decode() == _ref_fields_json(GRID, blocks)


def test_branch_demo_negative_series_matches_per_value_reference(tmp_path):
    cfg = validate_config(json.dumps({"scenario": "branch-demo"}), output_override=str(tmp_path))
    series = run_scenario(cfg).series["negative"]
    blocks = series.field_blocks
    assert all(np.isnan(block[name]).all() for block in blocks for name in ("rho_amended", "j_amended"))
    assert _fields_csv(cfg.grid, blocks).decode() == _ref_fields_csv(cfg.grid, blocks)
    assert _fields_json(cfg.grid, blocks).decode() == _ref_fields_json(cfg.grid, blocks)
    summary = (tmp_path / "branch-demo_negative_summary.csv").read_text()
    assert "NaN" in summary
    assert summary == _ref_summary_csv(series.summary)


@pytest.mark.parametrize("name", scenario_names())
def test_catalog_outputs_match_per_value_reference(name, tmp_path):
    cfg = validate_config(json.dumps({"scenario": name}), output_override=str(tmp_path))
    result = run_scenario(cfg)
    for label, series in result.series.items():
        stem = name if label == "main" else f"{name}_{label}"
        blocks, rows = series.field_blocks, series.summary
        assert (tmp_path / f"{stem}_fields.csv").read_text() == _ref_fields_csv(cfg.grid, blocks)
        assert (tmp_path / f"{stem}_summary.csv").read_text() == _ref_summary_csv(rows)
        assert _fields_json(cfg.grid, blocks).decode() == _ref_fields_json(cfg.grid, blocks)
        assert _summary_json(rows).decode() == _ref_summary_json(rows)
