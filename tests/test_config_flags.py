"""Config-file keys parsed as command-line flags, plus the sweep-table,
coupling-parameter and one-table-per-row guarantees.

A config entry key=value is read as the flag --key=value ahead of the
command line, so argparse alone converts and checks it and a flag typed
on the command line wins.
"""

import argparse
import json

import numpy as np
import pytest

import udspin.lmg as lmg
import udspin.sweep as sweep
from udspin.basis import shared_basis
from udspin.cli import build_parser, main
from udspin.errors import IntegrityError
from udspin.lmg import LmgParams, ground_state, variational_cat, variational_energy
from udspin.sweep import CSV_COLUMNS, SweepConfig, run_sweep, validate_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text)
    return str(path)


def test_build_parser_returns_the_parser():
    assert isinstance(build_parser(), argparse.ArgumentParser)


def test_config_value_starting_with_a_dash(tmp_path, capsys):
    config = write_config(tmp_path, "kind=dscs\nz=-1,0.5,0.3\n")
    code, from_config, _ = run(capsys, "state", "--config", config)
    assert code == 0
    assert "label=((-1+0j), (0.5+0j), (0.3+0j))" in from_config
    assert run(capsys, "state", "--kind", "dscs", "--z=-1,0.5,0.3") == (0, from_config, "")


def test_grid_keys_with_dashes_or_underscores_match_the_flags(tmp_path, capsys):
    config = write_config(
        tmp_path, "n=8\nlambda_min=0\nlambda-max=2\nlambda_count=5\nsources=numerical\n"
    )
    via_config, via_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
    assert run(capsys, "sweep", "--config", config, "--out", str(via_config))[0] == 0
    flags = ["--n", "8", "--lambda-min", "0", "--lambda-max", "2", "--lambda-count", "5"]
    assert run(capsys, "sweep", *flags, "--sources", "numerical",
               "--out", str(via_flags))[0] == 0
    assert via_config.read_bytes() == via_flags.read_bytes()
    assert len(via_config.read_text().splitlines()) == 6


def test_phase_config_and_command_line_precedence(tmp_path, capsys):
    config = write_config(tmp_path, "lam=2\n")
    code, out, _ = run(capsys, "phase", "--config", config)
    assert code == 0 and "phase: III" in out
    code, out, _ = run(capsys, "phase", "--config", config, "--lam", "0.3")
    assert code == 0 and "phase: I\n" in out
    code, out, _ = run(capsys, "phase", "--lam", "0.3", "--config", config)
    assert code == 0 and "phase: I\n" in out


@pytest.mark.parametrize("key", ["config", "command", "obs", "help"])
def test_reserved_and_abbreviated_keys_are_unknown(tmp_path, capsys, key):
    config = write_config(tmp_path, f"{key}=energy\n")
    code, _, err = run(capsys, "sweep", "--config", config, "--lambdas", "1", "--out", "x.csv")
    assert code == 2
    assert f"unknown config key {key!r} for command 'sweep'" in err


def test_abbreviated_flag_on_the_command_line_still_works(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, _, _ = run(capsys, "sweep", "--n", "8", "--lambdas", "1", "--obs", "energy",
                     "--format", "json", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["energy"] is not None and rows[0]["L1_atom"] is None


def test_bad_config_value_is_rejected_by_argparse(tmp_path, capsys):
    config = write_config(tmp_path, "jobs=soon\n")
    code, _, err = run(capsys, "sweep", "--config", config, "--lambdas", "1", "--out", "x.csv")
    assert code == 2
    assert "argument --jobs: invalid int value: 'soon'" in err


def test_state_defaults_come_from_the_parser(capsys):
    code, out, _ = run(capsys, "state")
    assert code == 0
    assert out.startswith("state: dscs  N=10  D=3  label=(")


# --------------------------------------------------------------------------
# validate_table rejects malformed files with IntegrityError


def _csv(tmp_path, *rows):
    path = tmp_path / "table.csv"
    path.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
    return path


def _json(tmp_path, rows):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(rows))
    return path


def _record(**cells):
    return dict.fromkeys(CSV_COLUMNS) | {"lambda": 0.0, "source": "numerical"} | cells


def test_csv_row_with_missing_cells(tmp_path):
    with pytest.raises(IntegrityError, match=r"row 0: no cell for column 'energy'"):
        validate_table(_csv(tmp_path, "0,numerical"), "csv")


def test_csv_row_with_extra_cells(tmp_path):
    row = ",".join(["0", "numerical"] + [""] * (len(CSV_COLUMNS) - 2) + ["1"])
    with pytest.raises(IntegrityError, match=r"row 0: cells past column 'beta0'"):
        validate_table(_csv(tmp_path, row), "csv")


def test_csv_non_numeric_cell(tmp_path):
    row = ",".join(["0", "numerical", "abc"] + [""] * (len(CSV_COLUMNS) - 3))
    with pytest.raises(IntegrityError, match=r"row 0: energy: non-numeric value 'abc'"):
        validate_table(_csv(tmp_path, row), "csv")


def test_json_list_of_non_objects(tmp_path):
    with pytest.raises(IntegrityError, match=r"row 0: record 5 is not an object"):
        validate_table(_json(tmp_path, [5]), "json")


def test_json_non_numeric_cell(tmp_path):
    path = _json(tmp_path, [_record(), _record(energy="abc")])
    with pytest.raises(IntegrityError, match=r"row 1: energy: non-numeric value 'abc'"):
        validate_table(path, "json")


def test_json_record_missing_a_column(tmp_path):
    record = _record()
    del record["xi2_21"]
    with pytest.raises(IntegrityError, match=r"row 0: no cell for column 'xi2_21'"):
        validate_table(_json(tmp_path, [record]), "json")


def test_json_top_level_not_a_list(tmp_path):
    with pytest.raises(IntegrityError, match="list of records"):
        validate_table(_json(tmp_path, _record()), "json")


# --------------------------------------------------------------------------
# LmgParams takes an integer particle number only


@pytest.mark.parametrize("n", [10.0, 10.5, True, "10"])
def test_lmg_params_reject_non_integer_n(n):
    with pytest.raises(ValueError, match="n_particles must be an integer"):
        LmgParams(n_particles=n, lam=1.0)


def test_lmg_params_accept_numpy_integer_n():
    as_numpy = ground_state(LmgParams(n_particles=np.int64(10), lam=1.0))
    assert as_numpy.energy == ground_state(LmgParams(n_particles=10, lam=1.0)).energy


# --------------------------------------------------------------------------
# one moment table per sweep row


@pytest.fixture
def table_calls(monkeypatch):
    calls = []
    original = sweep.expval_tables

    def counted(states):
        calls.extend(states if isinstance(states, list) else [states])
        return original(states)

    monkeypatch.setattr(sweep, "expval_tables", counted)
    monkeypatch.setattr(lmg, "expval_tables", counted)
    return calls


def test_one_moment_table_per_row_for_default_observables(table_calls):
    records = run_sweep(SweepConfig(n_particles=8, lambdas=(0.0, 1.0, 2.0)))
    assert len(records) == 6
    assert len(table_calls) == len(records)


def test_no_moment_table_without_table_observables(table_calls):
    config = SweepConfig(n_particles=8, lambdas=(0.0, 2.0), observables=("level_entropy_1",))
    records = run_sweep(config)
    assert len(records) == 4 and table_calls == []
    assert all(record.energy is None for record in records)


@pytest.mark.parametrize("observables", [("energy",), sweep.SWEEP_OBSERVABLES])
def test_variational_energy_unchanged_by_the_shared_table(observables):
    n, lams = 12, (0.3, 1.0, 2.5)
    config = SweepConfig(n_particles=n, lambdas=lams, sources=("variational",),
                         observables=observables)
    for lam, record in zip(lams, run_sweep(config)):
        params = LmgParams(n_particles=n, lam=lam)
        assert record.energy == variational_energy(
            variational_cat(shared_basis(n, 3), params), params
        )
