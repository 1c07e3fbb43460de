"""The per-coupling solve path, pinned bit for bit to its scipy-built form.

Oracles: the Hamiltonian as scipy's sparse arithmetic builds it,
sp.diags(eps/N diag) - s coupling, whose CSR arrays the pattern-filled H
must equal in every sector; and a copy, kept here, of the two-pass
Lanczos written as a generator that recomputes alpha and beta in its
second pass, whose eigenvalue and Ritz vector the replaying solver must
return byte for byte.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

import udspin.lmg as lmg
from udspin.lmg import LmgParams, build_hamiltonian, ground_state
from udspin.basis import shared_basis

SECTORS = [(0, 0), (0, 1), (1, 0), (1, 1), "full"]


def _structure(n, sector):
    if sector == "full":
        _, diag, coupling = lmg._workspace(n)
    else:
        _, _, diag, coupling = lmg._sector_structure(n, sector)
    return diag, coupling


def _scipy_hamiltonian(diag, coupling, params):
    n = params.n_particles
    kin = sp.diags(float(params.epsilon) / n * diag)
    return kin - float(params.lam) / (n * (n - 1)) * coupling


def _assert_same_csr(got, want):
    assert type(got) is type(want) and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n", [3, 4, 7, 50, 51])
@pytest.mark.parametrize("sector", SECTORS)
@pytest.mark.parametrize("lam", [0, 0.3, 1.5, Fraction(3, 2)])
def test_hamiltonian_equals_scipy_arithmetic(n, sector, lam):
    params = LmgParams(n_particles=n, lam=lam, epsilon=1.3)
    want = _scipy_hamiltonian(*_structure(n, sector), params)
    _assert_same_csr(lmg._hamiltonian(params, sector), want)


@pytest.mark.parametrize("n", [7, 50])
@pytest.mark.parametrize("epsilon, lam", [(5e-324, 1.0), (1.0, 1e-320), (5e-324, 1e-320)])
def test_entries_that_round_to_zero_are_dropped_as_scipy_drops_them(n, epsilon, lam):
    params = LmgParams(n_particles=n, lam=lam, epsilon=epsilon)
    for sector in SECTORS:
        want = _scipy_hamiltonian(*_structure(n, sector), params)
        _assert_same_csr(lmg._hamiltonian(params, sector), want)


def test_lam_zero_keeps_only_the_nonzero_diagonal():
    params = LmgParams(n_particles=50, lam=0.0)
    ham = lmg._hamiltonian(params, (0, 0))
    rows, _, diag, _ = lmg._sector_structure(50, (0, 0))
    assert ham.nnz == np.count_nonzero(diag) < rows.shape[0]
    np.testing.assert_array_equal(ham.diagonal(), diag / 50)


def test_build_hamiltonian_owns_its_arrays():
    params = LmgParams(n_particles=6, lam=1.0)
    ham = build_hamiltonian(shared_basis(6, 3), params)
    _assert_same_csr(ham, _scipy_hamiltonian(*_structure(6, "full"), params))
    assert ham.indices.flags.writeable and ham.indptr.flags.writeable
    ham.indices[:] = 0  # changes this copy, not the cached pattern
    _assert_same_csr(lmg._hamiltonian(params, "full"), build_hamiltonian(shared_basis(6, 3), params))


def test_pattern_is_shared_and_read_only():
    params = [LmgParams(n_particles=20, lam=lam) for lam in (0.7, 2.5)]
    first, second = (lmg._hamiltonian(p, (0, 0)) for p in params)
    assert np.shares_memory(first.indices, second.indices) and not first.indices.flags.writeable
    assert not np.shares_memory(first.data, second.data) and first.data.flags.writeable


# ---------------------------------------------------------------------------
# the replaying solver against the generator-based two-pass loop


def _recurrence(ham, start):
    q = start / math.sqrt((start * start).sum())
    prev, beta = np.zeros_like(q), 0.0
    while True:
        w = ham @ q
        w -= beta * prev
        alpha = float((q * w).sum())
        w -= alpha * q
        beta = math.sqrt((w * w).sum())
        yield q, alpha, beta
        prev, q = q, w / beta


def _reference_eigsh(ham, *, k=1, which="SA", v0, rng=None):
    alphas, betas, norm_t = [], [0.0], 0.0
    for _, alpha, beta in _recurrence(ham, v0):
        norm_t = max(norm_t, abs(alpha) + betas[-1] + beta)
        alphas.append(alpha)
        betas.append(beta)
        steps = len(alphas)
        tol = lmg._LANCZOS_TOL * norm_t
        check = steps % lmg._LANCZOS_CHECK_EVERY == 0 or steps in (len(v0), lmg._LANCZOS_MAX_STEPS)
        if beta > tol and not check:
            continue
        theta, y = eigh_tridiagonal(alphas, betas[1:-1], select="i", select_range=(0, 0))
        if beta * abs(y[-1, 0]) <= tol:
            break
    vec = np.zeros(len(v0))
    for coeff, (q, _, _) in zip(y[:, 0], _recurrence(ham, v0)):
        vec += coeff * q
    return theta, (vec / math.sqrt((vec * vec).sum()))[:, None], len(alphas)


CASES = [
    (3, 1.3, (1, 1)),  # one-state sector: beta_1 = 0 at the first step
    (50, 0.0, "even"),  # the cat start is exact: breakdown at step 1
    (50, 0.3, "even"),
    (50, 0.5, "even"),
    (50, 1.5, "even"),
    (50, 2.2, (0, 1)),
    (50, 6.0, "full"),
    (400, 0.0, "even"),
    (400, 1.5, "even"),
    (400, 3.0, "even"),
]


@pytest.mark.parametrize("n, lam, sector", CASES)
def test_eigsh_matches_the_generator_loop_bit_for_bit(monkeypatch, n, lam, sector):
    seen = []
    real = lmg.eigsh

    def both(ham, **kwargs):
        theta, vec = real(ham, **kwargs)
        want_theta, want_vec, steps = _reference_eigsh(ham, **kwargs)
        seen.append(steps)
        assert theta.dtype == want_theta.dtype and theta.tobytes() == want_theta.tobytes()
        assert vec.shape == want_vec.shape and vec.tobytes() == want_vec.tobytes()
        return theta, vec

    monkeypatch.setattr(lmg, "eigsh", both)
    ground_state(LmgParams(n_particles=n, lam=lam), sector)
    assert len(seen) == 1
    if lam == 0.0 or sector == (1, 1):
        assert seen == [1]


def test_eigsh_leaves_its_inputs_alone():
    ham = lmg._hamiltonian(LmgParams(n_particles=30, lam=1.1), (0, 0))
    v0 = np.linspace(1.0, 2.0, ham.shape[0])
    before = (v0.copy(), ham.data.copy())
    first = lmg.eigsh(ham, v0=v0)
    np.testing.assert_array_equal(v0, before[0])
    np.testing.assert_array_equal(ham.data, before[1])
    second = lmg.eigsh(ham, v0=v0)
    assert first[1].tobytes() == second[1].tobytes()


def test_eigsh_takes_a_dense_matrix():
    ham = lmg._hamiltonian(LmgParams(n_particles=12, lam=0.9), (0, 0))
    v0 = np.ones(ham.shape[0])
    sparse, dense = lmg.eigsh(ham, v0=v0), lmg.eigsh(ham.toarray(), v0=v0)
    assert sparse[0].tobytes() == dense[0].tobytes()
    assert sparse[1].tobytes() == dense[1].tobytes()


def test_eigsh_rejects_a_start_of_the_wrong_size():
    ham = lmg._hamiltonian(LmgParams(n_particles=12, lam=0.9), (0, 0))
    for v0 in (np.ones(ham.shape[0] + 1), np.ones(ham.shape[0] - 1), np.ones((ham.shape[0], 1))):
        with pytest.raises(ValueError, match="square ham matching v0"):
            lmg.eigsh(ham, v0=v0)
