"""The one Schwinger move rule, finite-value guards and CLI defaults.

basis._moves is the only place the bosonic action of S_ij**power is
written; its power-2 table must equal two composed power-1 moves, also
where no row holds two bosons to move.  Non-finite couplings and
non-finite table values are refused, and a bare CLI surface run takes
its defaults from SurfaceConfig.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from udspin.basis import SymmetricBasis, _moves
from udspin.cli import main
from udspin.errors import IntegrityError
from udspin.lmg import LmgParams, thermo_energy
from udspin.sweep import (
    SurfaceConfig,
    SweepConfig,
    SweepRecord,
    render_records,
    run_sweep,
    validate_table,
    write_records,
    write_surface,
)


def _dense(basis, i0, j0, power):
    src, dst, amp = _moves(basis.occupations, i0, j0, power)
    shape = (basis.dim, basis.dim)
    return sp.csr_matrix((amp, (dst, src)), shape=shape).toarray(), src


@pytest.mark.parametrize("n, d", [(7, 4), (1, 2)])
def test_power_two_moves_compose_power_one(n, d):
    basis = SymmetricBasis(n, d)
    for i0 in range(d):
        for j0 in range(d):
            once, _ = _dense(basis, i0, j0, 1)
            twice, src = _dense(basis, i0, j0, 2)
            np.testing.assert_allclose(twice, once @ once, rtol=0, atol=1e-12)
            if n == 1 and i0 != j0:
                assert src.size == 0  # no row with n_j >= 2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lam=math.nan),
        dict(lam=math.inf),
        dict(lam=1.0, epsilon=math.inf),
        dict(lam=1.0, epsilon=math.nan),
    ],
)
def test_lmg_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        LmgParams(n_particles=3, **kwargs)


def test_lmg_params_keep_fractions_exact():
    params = LmgParams(n_particles=3, lam=Fraction(3, 4), epsilon=Fraction(1, 2))
    assert thermo_energy(params) == Fraction(-2, 3)


@pytest.mark.parametrize("argv", [("--lam", "nan"), ("--epsilon", "inf")])
def test_phase_command_rejects_non_finite(argv, capsys):
    assert main(["phase", *argv]) == 2
    assert "finite" in capsys.readouterr().err


def test_energy_surface_command_rejects_nan_coupling(tmp_path, capsys):
    argv = ["surface", "--observable", "energy", "--lam", "nan", "--a-count", "2"]
    assert main([*argv, "--b-count", "2", "--out", str(tmp_path / "e.csv")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "values",
    [
        dict(lam=0.0, xi2_total=math.nan),
        dict(lam=0.0, energy=math.inf),
        dict(lam=math.nan, energy=-1.0),
    ],
)
def test_validate_table_rejects_non_finite(values, fmt, tmp_path):
    path = tmp_path / f"table.{fmt}"
    record = SweepRecord(source="numerical", **values)
    path.write_text(render_records([record], fmt), encoding="utf-8")
    with pytest.raises(IntegrityError, match="non-finite"):
        validate_table(path, fmt)
    with pytest.raises(IntegrityError, match="non-finite"):
        write_records([record], tmp_path / f"written.{fmt}", fmt)


def test_bare_surface_command_uses_surface_config_defaults(tmp_path, capsys):
    by_cli = tmp_path / "cli.csv"
    by_api = tmp_path / "api.csv"
    assert main(["surface", "--out", str(by_cli)]) == 0
    assert "wrote 1681 rows" in capsys.readouterr().out
    write_surface(SurfaceConfig(), by_api)
    assert by_cli.read_bytes() == by_api.read_bytes()
    sidecar = ".stationary.csv"
    assert (
        (tmp_path / f"cli.csv{sidecar}").read_bytes()
        == (tmp_path / f"api.csv{sidecar}").read_bytes()
    )


def test_sweep_command_fills_unset_fields_from_sweep_config(tmp_path, capsys):
    by_cli = tmp_path / "cli.csv"
    by_api = tmp_path / "api.csv"
    assert main(["sweep", "--n", "5", "--lambdas", "0,1", "--out", str(by_cli)]) == 0
    capsys.readouterr()
    write_records(run_sweep(SweepConfig(n_particles=5, lambdas=(0.0, 1.0))), by_api)
    assert by_cli.read_bytes() == by_api.read_bytes()
