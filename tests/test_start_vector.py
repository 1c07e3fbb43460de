"""The even cat built on its own parity sector, and the Lanczos start
vector that ground_state takes from the same amplitudes.

Oracles: the full coherent state projected by project_even, a
uniform-start eigsh on the sector sliced from build_hamiltonian, and
variational_cat, whose sector rows the start vector must be parallel to.
"""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import udspin.lmg as lmg
import udspin.states as states
from udspin.basis import SymmetricBasis, shared_basis
from udspin.errors import EmptySectorError, IntegrityError
from udspin.lmg import (
    LmgParams,
    build_hamiltonian,
    ground_state,
    parity_sector_indices,
    variational_cat,
)
from udspin.states import dcat, dscs, project_even
from udspin.sweep import default_lambda_grid

ORBITALS = [
    (5, (1.0, 0.8)),
    (6, (0.3, 1.0)),
    (7, (1.0, 0.0)),
    (4, (1.0, 0.7 - 0.2j, 0.4j)),
    (9, (0.5, 1.0, 0.0)),
    (8, (1.0, 0.0, 0.6)),
    (5, (1.0, 0.5, -0.3 + 0.6j, 0.9)),
    (6, (0.0, 1.0, 0.4, 0.0)),
    (4, (1.0, 0.2, 0.3, 0.4, 0.5)),
    (5, (0.7j, 0.0, 1.0 - 0.5j, 0.2, 0.0)),
]


@pytest.mark.parametrize("n, z", ORBITALS)
def test_sector_cat_equals_projected_coherent_state(n, z):
    basis = SymmetricBasis(n, len(z))
    projected, _ = project_even(dscs(basis, z))
    want = projected.normalized().coeffs
    got = dcat(basis, z).coeffs
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    outside = np.ones(basis.dim, dtype=bool)
    outside[basis.parity_sector((0,) * (len(z) - 1))[0]] = False
    assert not got[outside].any()


def test_empty_even_sector_raises():
    # all three particles on level 2: n_2 = 3 is odd, nothing is even
    with pytest.raises(EmptySectorError, match="even-parity projection"):
        dcat(SymmetricBasis(3, 2), (0.0, 1.0))


def test_norm_mismatch_raises(monkeypatch):
    real = states.dcat_norm_squared
    monkeypatch.setattr(states, "dcat_norm_squared", lambda z, n: real(z, n) + 1e-6)
    with pytest.raises(IntegrityError, match="cat-state norm mismatch"):
        dcat(SymmetricBasis(6, 3), (1.0, 0.5, 0.3))


def _uniform_start_energy(basis, params):
    idx = parity_sector_indices(basis, (0, 0))
    ham = build_hamiltonian(basis, params)[idx][:, idx]
    v0 = np.full(idx.size, 1.0 / math.sqrt(idx.size))
    return float(eigsh(ham, k=1, which="SA", v0=v0)[0][0])


@pytest.mark.parametrize(
    "n, lambdas",
    [(50, default_lambda_grid()), (400, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0))],
)
def test_energies_match_uniform_start(n, lambdas):
    basis = shared_basis(n, 3)
    for lam in lambdas:
        params = LmgParams(n_particles=n, lam=float(lam))
        want = _uniform_start_energy(basis, params)
        assert abs(ground_state(params).energy - want) <= 1e-12, (n, lam)


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The keyword arguments of every eigsh call ground_state makes."""
    calls = []
    real = lmg.eigsh

    def capture(ham, **kwargs):
        calls.append(kwargs)
        return real(ham, **kwargs)

    monkeypatch.setattr(lmg, "eigsh", capture)
    return calls


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.8, 1.5, 2.0, 4.5])
def test_start_vector_is_the_variational_cat(eigsh_calls, lam):
    n = 40
    params = LmgParams(n_particles=n, lam=lam)
    ground_state(params)
    (call,) = eigsh_calls
    v0 = call["v0"]
    basis = shared_basis(n, 3)
    cat = variational_cat(basis, params).coeffs[parity_sector_indices(basis, (0, 0))]
    cosine = abs(np.vdot(cat, v0)) / (np.linalg.norm(cat) * np.linalg.norm(v0))
    assert cosine == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(cat) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "lam, sector, uniform",
    [
        (0.3, (1, 0), True),  # phase I: z0 = (1, 0, 0) has no odd rows
        (0.3, (1, 1), True),
        (1.0, (0, 1), True),  # phase II: beta0 = 0, odd n_3 rows vanish
        (1.0, (1, 0), False),
        (3.0, (1, 1), False),
    ],
)
def test_uniform_start_only_where_the_coherent_state_vanishes(
    eigsh_calls, lam, sector, uniform
):
    ground_state(LmgParams(n_particles=21, lam=lam), sector=sector)
    (call,) = eigsh_calls
    assert (np.ptp(call["v0"]) == 0.0) == uniform


def test_exact_eigenvector_start_is_deterministic():
    # at lam = 0 the cat start |N,0,0> is already an eigenvector: beta_1 = 0
    # ends Lanczos at its first step, and no random vector is ever drawn
    params = LmgParams(n_particles=60, lam=0.0)
    first = ground_state(params)
    again = ground_state(params)
    assert again.energy == first.energy
    assert again.state.coeffs.tobytes() == first.state.coeffs.tobytes()
