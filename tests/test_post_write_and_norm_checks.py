"""The surface file's post-write range check, and the cat state's norm
cross-check where the even projection is small."""

import math

import numpy as np
import pytest

import udspin.states as states
import udspin.sweep as sweep
from udspin.basis import SymmetricBasis
from udspin.errors import IntegrityError
from udspin.states import _coherent_amplitudes, dcat, dcat_norm_squared
from udspin.sweep import SurfaceConfig, write_surface


@pytest.mark.parametrize("observable, bad", [("two_atom", 1.5), ("squeezing_total", -0.25)])
def test_failing_surface_cell_names_the_file_and_its_node(observable, bad, monkeypatch, tmp_path):
    def values(config, a, b):
        out = np.full(np.broadcast(a, b).shape, 0.5)
        out[2, 1] = bad
        return out

    monkeypatch.setattr(sweep, "_surface_value", values)
    config = SurfaceConfig(n_particles=4, observable=observable, a_count=3, b_count=4)
    path = tmp_path / "surface.csv"
    a, b = np.linspace(0.0, 2.0, 3)[2], np.linspace(0.0, 2.0, 4)[1]
    with pytest.raises(IntegrityError) as info:
        write_surface(config, path)
    assert str(info.value).startswith(f"{path}: ({a}, {b}): {bad!r} outside ")


def test_surface_check_passes_a_valid_table(tmp_path):
    path = tmp_path / "surface.csv"
    write_surface(SurfaceConfig(n_particles=4, observable="two_atom", a_count=3, b_count=3), path)
    assert len(path.read_text().splitlines()) == 10


FAR = (1.0, 1e6, 0.0)  # at N = 11 the even projection has squared norm 1.1e-11


def test_far_odd_cat_norm_matches_the_projection():
    basis = SymmetricBasis(11, 3)
    amps = _coherent_amplitudes(basis.sector_rows((0, 0)), np.array(FAR, dtype=complex))
    sq = float(np.sum(np.abs(amps) ** 2))
    assert sq == pytest.approx(1.1e-11, rel=1e-9)
    assert dcat_norm_squared(FAR, 11) == pytest.approx(sq, rel=1e-13)
    assert dcat(basis, FAR).norm == pytest.approx(1.0, abs=1e-14)


def test_far_odd_cat_norm_check_catches_a_relative_error(monkeypatch):
    real = states.dcat_norm_squared
    monkeypatch.setattr(states, "dcat_norm_squared", lambda z, n: real(z, n) * (1 + 1e-6))
    with pytest.raises(IntegrityError, match="cat-state norm mismatch"):
        dcat(SymmetricBasis(11, 3), FAR)


@pytest.mark.parametrize("n", [1, 2, 3, 11, 50, 101])
@pytest.mark.parametrize("z", [(1.0, 0.5, 0.3), (1e-3, 1.0, 2.0), (1.0, 1e3, 1e3), (0.0, 1.0, 1.0)])
def test_cat_norm_terms_are_free_of_cancellation(n, z):
    """Against the sign-pattern sum in exact rational arithmetic."""
    from fractions import Fraction

    x = [Fraction(abs(c)) ** 2 for c in z]
    total = sum(x)
    exact = sum(
        ((x[0] + s2 * x[1] + s3 * x[2]) / total) ** n for s2 in (1, -1) for s3 in (1, -1)
    ) / 4
    assert math.isclose(dcat_norm_squared(z, n), float(exact), rel_tol=1e-13, abs_tol=0.0)
