"""validate_table on JSON sweep tables: a numeric cell must be a JSON
number or null.  Booleans and strings are rejected with IntegrityError
naming the row and the column, where float() used to accept them."""

import json

import pytest

from udspin.errors import IntegrityError
from udspin.sweep import CSV_COLUMNS, validate_table


def _json(tmp_path, rows):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(rows))
    return path


def _record(**cells):
    return dict.fromkeys(CSV_COLUMNS) | {"lambda": 0.0, "source": "numerical"} | cells


@pytest.mark.parametrize(
    "column, cell",
    [
        ("lambda", True),
        ("L1_atom", False),
        ("energy", "0.5"),
        ("xi2_total", ""),
        ("alpha0", [0.5]),
        ("beta0", {"value": 0.5}),
    ],
)
def test_json_cell_that_is_not_a_number_or_null(tmp_path, column, cell):
    path = _json(tmp_path, [_record(), _record(**{column: cell})])
    with pytest.raises(IntegrityError, match=rf"row 1: {column}: non-numeric value"):
        validate_table(path, "json")


def test_json_integer_too_large_for_a_float(tmp_path):
    path = tmp_path / "table.json"
    row = json.dumps(_record()).replace('"beta0": null', '"beta0": 1' + "0" * 400)
    path.write_text(f"[{row}]")
    with pytest.raises(IntegrityError, match=r"row 0: beta0: non-numeric value"):
        validate_table(path, "json")


def test_json_numbers_and_nulls_validate(tmp_path):
    path = _json(tmp_path, [_record(energy=-1, L1_atom=0.25, xi2_total=None)])
    assert validate_table(path, "json") == 1

