"""Variational cats in one pass per sweep block.

lmg.variational_cat(basis, params, lams=...) makes the cats of a block of
couplings as one pass: one dcat_norm_squared call over the stack, one
amplitude product per orbital and row-wise norms.  Oracle: the cat as one
orbital at a time made it (reference_cat below), whose coefficient bytes the
pass must give, and the one-coupling call, whose error a failing coupling
must get.
"""

import math
import struct
import warnings

import numpy as np
import pytest

import udspin.states as states
import udspin.sweep as sweep
from udspin.basis import shared_basis
from udspin.errors import EmptySectorError, IntegrityError
from udspin.lmg import LmgParams, stationary_point, variational_cat
from udspin.states import dcat, dcat_norm_squared
from udspin.sweep import SweepConfig, default_lambda_grid, run_sweep


def reference_cat(basis, z) -> np.ndarray:
    """Coefficients of the even cat of one orbital: its own amplitude
    product rows.floats @ log z, its own sums, no stack."""
    z = np.asarray(z, dtype=np.complex128)
    rows = basis.sector_rows((0,) * (basis.n_levels - 1))
    finite = z != 0
    logz = np.zeros(z.size, dtype=np.complex128)
    logz[finite] = np.log(z[finite])
    w = rows.floats @ logz
    log_amp = rows.half_log_mult + w.real - 0.5 * rows.n_particles * np.log(np.vdot(z, z).real)
    live = ~(rows.rows[:, ~finite] > 0).any(axis=1)
    amps = np.zeros(w.shape, dtype=np.complex128)
    amps[live] = np.exp(log_amp[live] + 1j * w.imag[live])
    coeffs = np.zeros(basis.dim, dtype=np.complex128)
    coeffs[rows.ranks] = amps / np.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return coeffs


def orbital(n, lam, epsilon=1.0):
    point = stationary_point(LmgParams(n_particles=n, lam=lam, epsilon=epsilon))
    return [1.0, point.alpha0, point.beta0]


# ---------------------------------------------------------------------------
# the bytes of one orbital at a time


@pytest.mark.parametrize("n", [3, 4, 9, 50, 51, 400])
def test_block_cats_have_the_bytes_of_single_cats(n):
    basis, lams = shared_basis(n, 3), (0.0, 0.5, 1.5)  # lam = 0, eps/2 and 3 eps/2
    cats = variational_cat(basis, LmgParams(n_particles=n, lam=0.0), lams=lams)
    assert len(cats) == 3
    for lam, cat in zip(lams, cats):
        want = reference_cat(basis, orbital(n, lam)).tobytes()
        assert cat.coeffs.tobytes() == dcat(basis, orbital(n, lam)).coeffs.tobytes() == want
        params = LmgParams(n_particles=n, lam=lam)
        assert variational_cat(basis, params).coeffs.tobytes() == cat.coeffs.tobytes()


@pytest.mark.parametrize("epsilon", [1.0, 1.3])
def test_block_cats_over_the_default_grid(epsilon):
    n, lams = 50, default_lambda_grid(epsilon)
    basis = shared_basis(n, 3)
    cats = variational_cat(basis, LmgParams(n_particles=n, epsilon=epsilon, lam=0.0), lams=lams)
    assert len(cats) == 121
    for lam, cat in zip(lams, cats):
        z = orbital(n, lam, epsilon)
        assert cat.coeffs.tobytes() == dcat(basis, z).coeffs.tobytes()
        assert cat.coeffs.tobytes() == reference_cat(basis, z).tobytes()


@pytest.mark.parametrize("n", [4, 9, 51])
def test_complex_orbitals_have_the_bytes_of_single_cats(n, rng):
    basis = shared_basis(n, 3)
    z = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    z[2, 1] = z[4, 0] = z[5, 1:] = 0.0  # empty levels: their rows get no amplitude
    cats = states._dcats(basis, z)
    for row, cat in zip(z, cats):
        try:
            single = dcat(basis, row)
        except EmptySectorError as exc:  # (0, b, c) at odd N: no even row has n_1 = 0
            assert type(cat) is EmptySectorError and str(cat) == str(exc)
            continue
        assert cat.coeffs.tobytes() == single.coeffs.tobytes()
        assert cat.coeffs.tobytes() == reference_cat(basis, row).tobytes()
    assert isinstance(cats[4], EmptySectorError) == (n % 2 == 1)


def test_each_cat_owns_its_coefficients():
    basis = shared_basis(9, 3)
    cats = variational_cat(basis, LmgParams(n_particles=9, lam=0.0), lams=(0.0, 1.0, 2.0))
    for cat in cats:
        owner = cat.coeffs if cat.coeffs.base is None else cat.coeffs.base
        assert owner.nbytes == cat.coeffs.nbytes == 16 * basis.dim
        assert not cat.coeffs.flags.writeable


# ---------------------------------------------------------------------------
# dcat_norm_squared of a stack


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 3, 11, 50, 101])
def test_stacked_norm_equals_one_orbital_calls(n, d, rng):
    z = rng.standard_normal((6, d)) * rng.choice([1e-3, 1.0, 1e3], size=(6, d))
    z[1, 1:] = 0.0
    z = z + 1j * rng.standard_normal((6, d)) * (np.arange(6) % 2)[:, None]
    stacked = dcat_norm_squared(z, n)
    assert stacked.shape == (6,)
    for row, value in zip(z, stacked.tolist()):
        single = dcat_norm_squared(row, n)
        assert type(single) is float
        assert struct.pack("<d", value) == struct.pack("<d", single)
    shaped = dcat_norm_squared(z.reshape(2, 3, d), n)
    assert shaped.tobytes() == stacked.tobytes()


def test_a_stack_with_a_refused_orbital_is_refused():
    with pytest.raises(ValueError, match="orbital components must be finite"):
        dcat_norm_squared([[1.0, 0.5, 0.2], [1.0, math.nan, 0.0]], 5)


def test_default_sweep_takes_one_norm_call_per_block(monkeypatch):
    calls, real = [], states.dcat_norm_squared

    def counting(z, n):
        calls.append(np.shape(z))
        return real(z, n)

    monkeypatch.setattr(states, "dcat_norm_squared", counting)
    records = run_sweep(SweepConfig(n_particles=50))
    assert len(records) == 242
    assert len(calls) == 14  # 121 couplings in blocks of 9
    assert sum(shape[0] for shape in calls) == 121


# ---------------------------------------------------------------------------
# a failing coupling of a block


HUGE = 1e308  # 2 lam overflows: the mean-field orbital is (1, nan, nan)
GRID = (0.0, 1.0, 2.0, HUGE, 1.7e308)


def _skew_norm_at(monkeypatch, n, lam):
    """The closed-form norm of the cat at this coupling, off by 1e-6."""
    target, real = np.array(orbital(n, lam)), states.dcat_norm_squared

    def skewed(z, n):
        hit = (np.asarray(z) == target).all(axis=-1)
        return real(z, n) * np.where(hit, 1.0 + 1e-6, 1.0)

    monkeypatch.setattr(states, "dcat_norm_squared", skewed)


def test_block_gives_each_coupling_its_own_outcome(monkeypatch):
    _skew_norm_at(monkeypatch, 9, 2.0)
    basis, params = shared_basis(9, 3), LmgParams(n_particles=9, lam=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no row's arithmetic warns for another
        cats = variational_cat(basis, params, lams=GRID)
    for lam, cat in zip(GRID, cats):
        try:
            single = variational_cat(basis, LmgParams(n_particles=9, lam=lam))
        except (IntegrityError, ValueError) as exc:
            assert type(cat) is type(exc) and str(cat) == str(exc), lam
        else:
            assert cat.coeffs.tobytes() == single.coeffs.tobytes(), lam
    assert [type(cat) for cat in cats[2:]] == [IntegrityError, ValueError, ValueError]
    assert "cat-state norm mismatch" in str(cats[2])
    assert str(cats[3]) == str(cats[4]) == "orbital components must be finite"


def test_single_cat_errors_are_raised():
    basis = shared_basis(9, 3)
    with pytest.raises(ValueError, match="orbital components must be finite"):
        variational_cat(basis, LmgParams(n_particles=9, lam=HUGE))
    with pytest.raises(ValueError, match="orbital has 2 components, expected 3"):
        dcat(basis, [1.0, 0.5])
    with pytest.raises(ValueError, match="orbital must be nonzero"):
        dcat(basis, [0.0, 0.0, 0.0])
    with pytest.raises(EmptySectorError):
        dcat(shared_basis(3, 3), [0.0, 1.0, 1.0e-9j])


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bound", [1, None, 2**40])
@pytest.mark.parametrize("sources", [("variational",), ("numerical", "variational")])
@pytest.mark.parametrize("skew", [True, False])
def test_sweep_names_the_first_failing_coupling_once(monkeypatch, sources, bound, jobs, skew):
    if skew:
        _skew_norm_at(monkeypatch, 9, 2.0)
    if bound is not None:
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", bound)
    config = SweepConfig(n_particles=9, lambdas=GRID, sources=sources, jobs=jobs)
    with pytest.raises((IntegrityError, ValueError)) as info:
        run_sweep(config)
    message = str(info.value)
    if skew:  # 2.0 fails before 1e308, and its numerical row passes
        assert type(info.value) is IntegrityError
        assert message.startswith("N=9, lam=2.0, source=variational: cat-state norm mismatch")
        lam = "2.0"
    elif sources == ("variational",):
        assert type(info.value) is ValueError
        assert message == "N=9, lam=1e+308, source=variational: orbital components must be finite"
        lam = "1e+308"
    else:  # the numerical row of 1e308 comes first: its start is not finite
        assert message.startswith("N=9, lam=1e+308, source=numerical: eigensolver failed")
        assert "v0 must be finite and nonzero" in message
        lam = "1e+308"
    assert message.count("lam=") == 1 and message.count(lam) == 1
