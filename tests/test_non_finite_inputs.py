"""Inputs that used to build NaN states or fail without naming where.

A nodon phase that is not finite is refused, as a dscs or dcat orbital
component is.  A coupling so large that the mean-field start vector is
not finite fails naming N, the coupling and the sector.
"""

import math

import pytest

from udspin.basis import SymmetricBasis
from udspin.cli import main
from udspin.lmg import LmgParams, ground_state
from udspin.states import nodon


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nodon_refuses_non_finite_phases(bad):
    with pytest.raises(ValueError, match="nodon phases must be finite"):
        nodon(SymmetricBasis(4, 3), [0.0, bad, 0.0])


@pytest.mark.parametrize("phases", ["0,nan,0", "0,inf,0"])
def test_state_command_refuses_non_finite_phases(capsys, phases):
    assert main(["state", "--kind", "nodon", "--n", "4", "--phases", phases]) == 2
    assert "nodon phases must be finite" in capsys.readouterr().err


# 2 lam overflows to inf above about 9e307, and the mean-field start with it
HUGE = 1e308


def test_non_finite_start_names_n_lambda_and_sector():
    with pytest.raises(ValueError) as info:
        ground_state(LmgParams(n_particles=3, lam=HUGE))
    message = str(info.value)
    assert message.startswith("eigensolver failed at N=3, lam=1e+308, sector='even': ")
    assert type(info.value.__cause__) is ValueError
    assert str(info.value.__cause__) in message
    assert "v0 must be finite and nonzero" in message


def test_sweep_past_the_float_range_names_n_lambda_sector_and_source(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "3", "--lambdas", f"0,{HUGE!r}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: N=3, lam=1e+308, source=numerical: ")
    assert "sector='even'" in err and "v0 must be finite" in err
    argv = ["sweep", "--n", "3", "--lambdas", f"0,{HUGE!r}", "--sources", "variational"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: N=3, lam=1e+308, source=variational: ")
    assert not out.exists()
