"""Parity sectors: the LMG coupling and the moment tables built inside one.

Oracles: the full-space coupling sliced to a sector, the per-entry
state-vector moments expval_sij / expval_sij_skl, and <psi|H|psi> from
the full-space build_hamiltonian.
"""

import numpy as np
import pytest

import udspin.lmg as lmg
from udspin.basis import (
    SymmetricBasis,
    SymmetricState,
    expval_sij,
    expval_sij_skl,
    expval_tables,
    shared_basis,
)
from udspin.errors import ConfigError
from udspin.lmg import (
    LmgParams,
    build_hamiltonian,
    ground_state,
    variational_cat,
    variational_energy,
)
from udspin.states import dcat, dscs
from udspin.sweep import SurfaceConfig, SweepConfig, run_sweep

SECTORS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("n", [3, 4, 7, 50, 51])
@pytest.mark.parametrize("parities", SECTORS)
def test_sector_coupling_equals_sliced_full_coupling(n, parities):
    _, _, full = lmg._workspace(n)
    _, idx, _, sub = lmg._sector_structure(n, parities)
    sliced = full[idx][:, idx]
    for name in ("indptr", "indices", "data"):
        expected, got = getattr(sliced, name), getattr(sub, name)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_smallest_sector_has_one_state():
    _, idx, _, sub = lmg._sector_structure(3, (1, 1))
    assert idx.size == 1 and sub.shape == (1, 1)


def _per_entry_tables(state):
    levels = range(1, state.basis.n_levels + 1)
    S = np.array([[expval_sij(state, i, j) for j in levels] for i in levels])
    Q = np.array(
        [
            [[[expval_sij_skl(state, i, j, k, l) for l in levels] for k in levels] for j in levels]
            for i in levels
        ]
    )
    return S, Q


def _assert_sector_route_matches(state):
    """Tables on a fresh basis come from the sector route (no S_ij move
    memoized) and equal the per-entry moments."""
    basis = SymmetricBasis(state.basis.n_particles, state.basis.n_levels)
    fresh = SymmetricState(basis, state.coeffs)
    S, Q = expval_tables(fresh)
    assert basis._move_cache == {} and len(basis._sector_cache) == 1
    S_ref, Q_ref = _per_entry_tables(fresh)
    np.testing.assert_allclose(S, S_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Q, Q_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 9, 16])
@pytest.mark.parametrize("parities", SECTORS)
def test_ground_state_tables_match_per_entry_moments(n, parities):
    for lam in (0.0, 0.5, 1.5, 3.0):
        result = ground_state(LmgParams(n_particles=n, lam=lam), sector=parities)
        _assert_sector_route_matches(result.state)


@pytest.mark.parametrize(
    "n, z",
    [
        (6, (1.0, 0.8)),
        (7, (1.0, 0.7 - 0.2j, 0.4j)),
        (5, (1.0, 0.5, -0.3 + 0.6j, 0.9)),
    ],
)
def test_cat_tables_match_per_entry_moments(n, z):
    _assert_sector_route_matches(dcat(SymmetricBasis(n, len(z)), z))


@pytest.mark.parametrize("n, d", [(5, 2), (7, 3), (4, 4)])
def test_random_parity_definite_tables_match_per_entry_moments(n, d):
    rng = np.random.default_rng(7 * n + d)
    basis = SymmetricBasis(n, d)
    for parities in np.ndindex(*(2,) * (d - 1)):
        idx, _ = basis.parity_sector(parities)
        c = np.zeros(basis.dim, dtype=np.complex128)
        c[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
        _assert_sector_route_matches(SymmetricState(basis, c).normalized())


def test_coherent_state_takes_the_gram_route():
    basis = SymmetricBasis(6, 3)
    state = dscs(basis, (1.0, 0.6 - 0.3j, 0.2 + 0.5j))
    S, Q = expval_tables(state)
    assert basis._sector_cache == {} and basis._move_cache
    S_ref, Q_ref = _per_entry_tables(state)
    np.testing.assert_allclose(S, S_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Q, Q_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [9, 30])
def test_cat_variational_energy_equals_hamiltonian_expectation(n):
    basis = shared_basis(n, 3)
    for lam in (0.3, 1.0, 1.5, 2.5):
        params = LmgParams(n_particles=n, lam=lam)
        c = variational_cat(basis, params).coeffs
        expected = float(np.vdot(c, build_hamiltonian(basis, params) @ c).real)
        got = variational_energy(SymmetricState(basis, c), params)
        assert abs(got - expected) <= 1e-12


def test_sweep_stays_inside_the_parity_sector(monkeypatch):
    n = 31  # used by no other test, so no cache holds it yet

    def no_full_space(*args):
        raise AssertionError("full-space coupling built during a sweep")

    monkeypatch.setattr(lmg, "_workspace", no_full_space)
    records = run_sweep(SweepConfig(n_particles=n, lambdas=(0.0, 1.0, 2.0)))
    assert {r.source for r in records} == {"numerical", "variational"}
    assert all(r.xi2_total is not None and r.energy is not None for r in records)
    assert shared_basis(n, 3)._move_cache == {}


@pytest.mark.parametrize("sector", ["odd", "01", (0, 1, 0), (0, 2), None, 1])
def test_bad_sector_names_the_accepted_forms(sector):
    with pytest.raises(ValueError, match="'even', 'full' or a pair of 0/1 parities"):
        ground_state(LmgParams(n_particles=5, lam=1.0), sector=sector)


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig(n_particles=10.5),
        SweepConfig(n_particles="50"),
        SweepConfig(jobs=True),
        SweepConfig(jobs=2.0),
        SurfaceConfig(n_particles=10.5),
        SurfaceConfig(a_count=2.5),
        SurfaceConfig(b_count=np.float64(3.0)),
    ],
)
def test_non_integer_counts_raise_config_error(config):
    with pytest.raises(ConfigError, match="must be an integer"):
        config.validated()


def test_numpy_integer_counts_are_accepted():
    assert SweepConfig(n_particles=np.int64(5), jobs=np.int64(1)).validated().n_particles == 5
    assert SurfaceConfig(a_count=np.int32(3)).validated().a_count == 3
