"""Closed-form moment tables of orbitals with huge or tiny components.

The tables are scale-invariant, and each orbital is scaled by a power of
two before it is squared, so a component up to the float limit gives
finite tables with the same bits as the orbital scaled down exactly.
Oracle: the tables of the same orbital at moderate scale.  An orbital
whose squared norm underflows is still refused by every constructor.
"""

import csv

import numpy as np
import pytest

from udspin.basis import shared_basis
from udspin.cli import main
from udspin.states import dcat, dcat_expval_tables, dscs, dscs_expval_tables


def _orbitals():
    rng = np.random.default_rng(11)
    return rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))


@pytest.mark.parametrize("tables", [dscs_expval_tables, dcat_expval_tables])
@pytest.mark.parametrize("power", [1000, 600, -530])
@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_tables_keep_their_bits_under_power_of_two_scaling(tables, power, n):
    z = _orbitals()
    want_s, want_q = tables(z, n)
    got_s, got_q = tables(z * 2.0**power, n)
    assert got_s.tobytes() == want_s.tobytes() and got_q.tobytes() == want_q.tobytes()


def test_dcat_tables_at_a_huge_component_are_those_of_one_level():
    S, Q = dcat_expval_tables([1.0, 1e160, 0.0], 10)
    assert np.isfinite(S).all() and np.isfinite(Q).all()
    np.testing.assert_allclose(np.diag(S).real, [0.0, 10.0, 0.0], atol=1e-12)


def test_surface_node_at_a_huge_coordinate_is_finite(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["surface", "--n", "10", "--kind", "dcat", "--observable", "two_atom",
            "--a-max", "1e160", "--a-count", "2", "--b-count", "2", "--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    far = [float(r["value"]) for r in rows if float(r["alpha"]) == 1e160]
    assert len(far) == 2 and all(0.0 <= v <= 1e-12 for v in far)  # |0, N, 0> is a product


@pytest.mark.parametrize("make", [dscs, dcat])
def test_orbital_whose_squared_norm_underflows_is_refused(make):
    with pytest.raises(ValueError, match="orbital must be nonzero"):
        make(shared_basis(5, 3), [1e-170, 1e-170, 0.0])
    with pytest.raises(ValueError, match="orbital must be nonzero"):
        dscs_expval_tables([1e-170, 1e-170, 0.0], 5)
