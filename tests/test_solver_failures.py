"""How a Lanczos solve fails, and that ground_state names where.

eigsh itself raises IntegrityError at its step cap, and ValueError at the
first convergence check whose residual estimate is NaN: past about 1e154
LAPACK's tridiagonal solve overflows on entries of H that are finite.
"""

import numpy as np
import pytest

import udspin.lmg as lmg
from udspin.cli import main
from udspin.errors import IntegrityError
from udspin.lmg import LmgParams, ground_state


def test_step_cap_raises_integrity_error_from_eigsh(monkeypatch):
    monkeypatch.setattr(lmg, "_LANCZOS_MAX_STEPS", 5)
    ham = lmg._hamiltonian(LmgParams(n_particles=40, lam=1.5), (0, 0))
    with pytest.raises(IntegrityError, match="5 Lanczos steps failed to converge"):
        lmg.eigsh(ham, v0=np.ones(ham.shape[0]))


def test_nan_residual_estimate_fails_at_the_first_check(monkeypatch, tmp_path, capsys):
    sizes, real = [], lmg._lowest_ritz

    def counting(alphas, off):
        sizes.append(alphas.size)
        return real(alphas, off)

    monkeypatch.setattr(lmg, "_lowest_ritz", counting)
    with pytest.raises(ValueError, match="residual estimate nan") as info:
        ground_state(LmgParams(5, 1e154))
    assert len(sizes) == 1
    assert str(info.value).startswith("eigensolver failed at N=5, lam=1e+154, sector='even': ")
    argv = ["sweep", "--n", "5", "--lambdas", "0,1e154", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    assert len(sizes) == 3  # lam = 0 converges at its first check, 1e154 fails at its own
    err = capsys.readouterr().err
    assert err.startswith("error: N=5, lam=1e+154, source=numerical: ")
    assert "sector='even'" in err
