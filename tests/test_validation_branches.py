"""Input checks that refuse bad arguments, one test per refusal.

Each case hands a function one malformed input and expects the error
class (and message) that its validation raises, and the CLI's exit code
where the input comes from the command line.
"""

import json

import pytest

import udspin.selftest as selftest
from udspin.basis import SymmetricBasis, matrix_element, shared_basis
from udspin.cli import main
from udspin.errors import ConfigError, EmptySectorError, IntegrityError
from udspin.lmg import LmgParams, build_hamiltonian, variational_cat, variational_energy
from udspin.states import _as_orbitals, dcat_expval_tables
from udspin.sweep import (
    CSV_COLUMNS,
    SurfaceConfig,
    SweepConfig,
    run_sweep,
    validate_table,
    write_records,
    write_surface,
)


@pytest.mark.parametrize(
    "z, n_levels, message",
    [
        ([1.0, 2.0], 3, "orbital has 2 components, expected 3"),
        ([1.0], None, "at least two components"),
        ([1.0, float("nan"), 0.0], None, "must be finite"),
        ([0.0, 0.0, 0.0], None, "must be nonzero"),
    ],
)
def test_orbital_refusals(z, n_levels, message):
    with pytest.raises(ValueError, match=message):
        _as_orbitals(z, n_levels)


def test_cat_tables_of_a_vanishing_projection():
    # at N = 11 nearly all weight sits on level 2, whose count is then odd
    with pytest.raises(EmptySectorError, match="annihilated"):
        dcat_expval_tables([1.0, 1e17, 0.0], 11)


@pytest.fixture
def sweep_json(tmp_path):
    path = tmp_path / "sweep.json"
    write_records(run_sweep(SweepConfig(n_particles=4, lambdas=(0.5,))), path, "json")
    return path


def test_validate_table_unknown_format(sweep_json):
    with pytest.raises(ConfigError, match="unknown format 'yaml'"):
        validate_table(sweep_json, "yaml")


def test_validate_table_bad_source(sweep_json):
    rows = json.loads(sweep_json.read_text())
    rows[1]["source"] = "guessed"
    sweep_json.write_text(json.dumps(rows))
    with pytest.raises(IntegrityError, match="row 1: bad source 'guessed'"):
        validate_table(sweep_json, "json")


def test_validate_table_extra_json_column(sweep_json):
    rows = json.loads(sweep_json.read_text())
    assert list(rows[0]) == list(CSV_COLUMNS)
    rows[0]["comment"] = 1.0
    sweep_json.write_text(json.dumps(rows))
    with pytest.raises(IntegrityError, match=r"row 0: unknown columns \['comment'\]"):
        validate_table(sweep_json, "json")


_SMALL_SURFACE = SurfaceConfig(n_particles=3, observable="one_atom", a_count=2, b_count=2)


def test_write_surface_unknown_format(tmp_path):
    with pytest.raises(ConfigError, match="unknown format 'xml'"):
        write_surface(_SMALL_SURFACE, tmp_path / "s.xml", "xml")


def test_write_surface_unwritable_path(tmp_path):
    with pytest.raises(ConfigError, match="cannot write"):
        write_surface(_SMALL_SURFACE, tmp_path / "missing" / "s.csv")


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("inf"), float("nan")])
def test_surface_config_bad_epsilon(epsilon):
    with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
        SurfaceConfig(epsilon=epsilon).validated()


def test_cli_sweep_non_numeric_lambda_exits_2(tmp_path, capsys):
    assert main(["sweep", "--lambdas", "1,x", "--out", str(tmp_path / "s.csv")]) == 2
    assert "bad numeric list '1,x'" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_build_hamiltonian_needs_three_levels():
    with pytest.raises(ValueError, match="three-level basis"):
        build_hamiltonian(SymmetricBasis(4, 2), LmgParams(n_particles=4, lam=1.0))


def test_variational_energy_with_params_of_another_size():
    state = variational_cat(shared_basis(5, 3), LmgParams(n_particles=5, lam=1.0))
    with pytest.raises(ValueError, match="does not match params"):
        variational_energy(state, LmgParams(n_particles=6, lam=1.0))


@pytest.mark.parametrize("parities", [(0,), (0, 0, 0)])
def test_sector_rows_wrong_number_of_parities(parities):
    with pytest.raises(ValueError, match=f"need 2 parities, got {len(parities)}"):
        shared_basis(5, 3).sector_rows(parities)


def test_matrix_element_of_mismatched_sizes():
    with pytest.raises(ValueError, match="different level counts"):
        matrix_element([1, 1], [1, 0, 1], 1, 2)


def test_selftest_reports_a_failing_check(monkeypatch):
    def broken():
        raise AssertionError("planted")

    monkeypatch.setattr(selftest, "CHECKS", (("planted failure", broken),))
    lines = []
    assert selftest.run_selftest(echo=lines.append) == 1
    assert lines[0].startswith("[selftest] FAIL planted failure: AssertionError('planted')")
    assert lines[-1] == "[selftest] 0/1 checks passed"
