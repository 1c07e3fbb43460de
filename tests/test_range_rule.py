"""One range rule for every bounded number, and integrity gates that
reject NaN.

Oracles: the rule's own contract (finite, within tolerance of [0, 1] or
[0, inf), snapped onto the bound); float couplings for the Fraction
path; shared_basis identity for the state a ground-state solve returns.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import udspin.cli as cli
import udspin.errors as errors
import udspin.lmg as lmg
import udspin.states as states
import udspin.sweep as sweep
from udspin.basis import SymmetricBasis, expval_tables, shared_basis
from udspin.cli import main
from udspin.errors import ConfigError, IntegrityError
from udspin.lmg import LmgParams, build_hamiltonian, ground_state
from udspin.rdm import spectrum_entropies, two_qudit_purity_from_tables
from udspin.squeezing import xi_pair_from_tables
from udspin.states import dcat, dscs
from udspin.sweep import SurfaceConfig, SweepConfig, write_surface

# ---------------------------------------------------------------------------
# the rule


@pytest.mark.parametrize("kind", ["unit", "nonneg", None])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_rule_rejects_non_finite(kind, value):
    with pytest.raises(IntegrityError, match="widget: non-finite"):
        errors.check_range(value, kind, "widget", tol=1e-9)


@pytest.mark.parametrize(
    "value, kind, want",
    [
        (-5e-10, "unit", 0.0),
        (1.0 + 5e-10, "unit", 1.0),
        (-5e-10, "nonneg", 0.0),
        (0.25, "unit", 0.25),
        (1e300, "nonneg", 1e300),
        (-1e300, None, -1e300),
        (np.float64(0.5), "unit", 0.5),
    ],
)
def test_rule_snaps_within_tolerance(value, kind, want):
    got = errors.check_range(value, kind, "widget", tol=1e-9)
    assert got == want and type(got) is float


@pytest.mark.parametrize(
    "value, kind, tol",
    [
        (-2e-9, "unit", 1e-9),
        (1.0 + 2e-9, "unit", 1e-9),
        (-1e-300, "nonneg", 0.0),
        (1.5, "unit", 0.0),
    ],
)
def test_rule_rejects_beyond_tolerance(value, kind, tol):
    with pytest.raises(IntegrityError, match=r"^widget: .* outside .* beyond tolerance"):
        errors.check_range(value, kind, "widget", tol=tol)


def test_rule_is_not_exported():
    import udspin

    assert not hasattr(udspin, "check_range")


# ---------------------------------------------------------------------------
# NaN through the public paths


def test_spectrum_entropies_rejects_nan():
    with pytest.raises(IntegrityError, match="eigenvalue: non-finite"):
        spectrum_entropies([math.nan, 0.5], "level", 1, 3)


def test_xi_pair_rejects_nan():
    _, Q = expval_tables(dscs(SymmetricBasis(4, 3), (1.0, 0.5, 0.2)))
    Q = Q.copy()
    Q[1, 0, 0, 1] = math.nan
    with pytest.raises(IntegrityError, match="squeezing parameter: non-finite"):
        xi_pair_from_tables(Q, 4, 2, 1)


@pytest.mark.parametrize("observable", ["two_atom", "squeezing_total", "energy"])
def test_write_surface_rejects_nan_cell(observable, monkeypatch, tmp_path):
    monkeypatch.setattr(sweep, "_surface_value", lambda config, a, b: math.nan)
    config = SurfaceConfig(n_particles=4, observable=observable, a_count=2, b_count=2)
    with pytest.raises(IntegrityError, match="non-finite"):
        write_surface(config, tmp_path / "surface.csv")


# ---------------------------------------------------------------------------
# the four integrity gates with NaN


def test_ground_state_rejects_nan_eigenpair(monkeypatch):
    def nan_eigsh(ham, **kwargs):
        return np.array([math.nan]), np.full((ham.shape[0], 1), math.nan)

    monkeypatch.setattr(lmg, "eigsh", nan_eigsh)
    with pytest.raises(IntegrityError) as info:
        ground_state(LmgParams(n_particles=9, lam=1.25))
    message = str(info.value)
    for part in ("residual", "N=9", "lam=1.25", "even"):
        assert part in message


def test_dcat_rejects_nan_norm(monkeypatch):
    monkeypatch.setattr(states, "dcat_norm_squared", lambda z, n: math.nan)
    with pytest.raises(IntegrityError, match="cat-state norm mismatch"):
        dcat(SymmetricBasis(6, 3), (1.0, 0.5, 0.3))


def test_state_report_rejects_nan_deviation(monkeypatch, capsys):
    real = cli._state_and_closed_tables

    def nan_closed(args):
        state, (S, Q), label = real(args)
        return state, (np.full_like(S, math.nan), Q), label

    monkeypatch.setattr(cli, "_state_and_closed_tables", nan_closed)
    assert main(["state", "--kind", "dscs", "--n", "6"]) == 3
    assert "integrity error" in capsys.readouterr().err


def test_two_qudit_purity_rejects_nan():
    S, Q = expval_tables(dscs(SymmetricBasis(5, 3), (1.0, 0.4, 0.7)))
    Q = Q.copy()
    Q[0, 0, 0, 0] = math.nan
    with pytest.raises(IntegrityError, match="two-particle purity"):
        two_qudit_purity_from_tables(S, Q, 5)


# ---------------------------------------------------------------------------
# exact couplings, the shared basis, string subsets


@pytest.mark.parametrize(
    "lam, epsilon",
    [
        (Fraction(1, 4), 1.0),
        (Fraction(1, 2), 1.0),
        (Fraction(3, 2), 1),
        (Fraction(5, 2), Fraction(1)),
    ],
)
def test_fraction_couplings_match_floats_exactly(lam, epsilon):
    exact = LmgParams(n_particles=5, lam=lam, epsilon=epsilon)
    floats = LmgParams(n_particles=5, lam=float(lam), epsilon=float(epsilon))
    for sector in ("even", "full", (1, 0)):
        assert ground_state(exact, sector).energy == ground_state(floats, sector).energy
    basis = shared_basis(5, 3)
    want = build_hamiltonian(basis, floats)
    got = build_hamiltonian(basis, exact)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got.toarray(), want.toarray())


@pytest.mark.parametrize("sector", ["even", "full", (0, 1)])
def test_ground_state_uses_shared_basis_after_cache_churn(sector):
    params = LmgParams(n_particles=5, lam=1.0)
    ground_state(params, sector)  # caches the sector structures with today's basis
    for k in range(1, 17):
        shared_basis(k, 2)  # evicts (5, 3) from the shared-basis cache
    assert ground_state(params, sector).state.basis is shared_basis(5, 3)


@pytest.mark.parametrize("field", ["sources", "observables"])
def test_string_subset_is_config_error(field):
    value = {"sources": "numerical", "observables": "energy"}[field]
    config = SweepConfig(n_particles=5, **{field: value})
    with pytest.raises(ConfigError, match=rf"{field} must be a sequence of names"):
        config.validated()
