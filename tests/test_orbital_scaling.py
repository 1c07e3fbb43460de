"""Closed-form moment tables of orbitals with huge or tiny components.

The tables are scale-invariant, and each orbital is scaled by a power of
two before it is squared, so a component up to the float limit gives
finite tables with the same bits as the orbital scaled down exactly.
Oracle: the tables of the same orbital at moderate scale.  An orbital
whose squared norm underflows is still refused by every constructor.
Surfaces out to the float limit stay finite and in range, and far out they
read the one- or two-level states their orbitals tend to.
"""

import csv
import math
import warnings

import numpy as np
import pytest

from udspin.basis import shared_basis
from udspin.cli import main
from udspin.rdm import dscs_level_weights, spectrum_entropies
from udspin.states import dcat, dcat_expval_tables, dscs, dscs_expval_tables
from udspin.sweep import SURFACE_OBSERVABLES


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


def _surface_cells(tmp_path, *flags) -> dict:
    """{(a, b): value} of a 3x3 N = 10 surface written through the CLI, with
    any warning (an overflow among them) an error."""
    out = tmp_path / "s.csv"
    argv = ["surface", "--n", "10", "--a-count", "3", "--b-count", "3", *flags, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    with open(out, newline="") as handle:
        return {(float(r[0]), float(r[1])): float(r[2]) for r in list(csv.reader(handle))[1:]}


BIG = [1e200, 1e300, 1e308]


@pytest.mark.parametrize("big", BIG)
@pytest.mark.parametrize("kind", ["dscs", "dcat"])
@pytest.mark.parametrize("observable", SURFACE_OBSERVABLES)
def test_surface_at_the_float_limit_is_finite(observable, kind, big, tmp_path):
    big = repr(big)
    cells = _surface_cells(tmp_path, "--kind", kind, "--observable", observable,
                           "--a-max", big, "--b-max", big)
    assert all(math.isfinite(v) for v in cells.values())
    if observable not in ("energy", "squeezing_total"):
        assert all(0.0 <= v <= 1.0 for v in cells.values())


@pytest.mark.parametrize("big", BIG)
def test_energy_surface_past_the_float_range(big, tmp_path):
    cells = _surface_cells(tmp_path, "--observable", "energy", "--a-max", repr(big),
                           "--b-max", repr(big))
    # far out the state is |0, N, 0> (energy 0), |0, 0, N> (energy epsilon), or the two
    # levels equally, where the coupling lam = 1 cancels the splitting
    assert (cells[(big, 0.0)], cells[(0.0, big)], cells[(big, big)]) == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("big", BIG)
def test_level_surfaces_past_the_float_range(big, tmp_path):
    far = repr(big)
    # level 1 of (1, a, b) is empty once a is past the float range, and the cat's level 2 full
    for flags in (("--kind", "dscs", "--observable", "level_entropy_1"),
                  ("--kind", "dcat", "--observable", "level_entropy_2")):
        cells = _surface_cells(tmp_path, *flags, "--a-max", far)
        assert [v for (a, _), v in cells.items() if a > 0] == [0.0] * 6
    cells = _surface_cells(tmp_path, "--kind", "dscs", "--coords", "xy",
                           "--observable", "level_entropy_1", "--a-max", far, "--b-max", far)
    even = spectrum_entropies(dscs_level_weights(10, 1.0, 1.0), "level", 10, 3).linear
    assert cells[(big, big)] == pytest.approx(even, abs=1e-12)
    assert cells[(big, 0.0)] == cells[(0.0, big)] == 0.0


@pytest.mark.parametrize("make", [dscs, dcat])
def test_orbital_whose_squared_norm_underflows_is_refused(make):
    with pytest.raises(ValueError, match="orbital must be nonzero"):
        make(shared_basis(5, 3), [1e-170, 1e-170, 0.0])
    with pytest.raises(ValueError, match="orbital must be nonzero"):
        dscs_expval_tables([1e-170, 1e-170, 0.0], 5)
