"""The Lanczos vector store, the direct LAPACK convergence check, and the
input checks eigsh makes itself.

eigsh keeps as many Lanczos vectors as fit in _KRYLOV_STORE_FLOATS and
replays the rest; however many fit, the eigenvalue and Ritz vector must
not move by a bit.  Its convergence check calls dstebz/dstein as
scipy's eigh_tridiagonal(select="i") does, and must return that
function's bytes.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

import udspin.lmg as lmg
from udspin.lmg import LmgParams, ground_state
from udspin.states import parity_expval


def _recorded(monkeypatch, n, lam, sector):
    """(ham, v0, m) of the ground_state solve, m its Lanczos step count,
    plus every tridiagonal its convergence checks were handed."""
    solves, tridiagonals = [], []
    real_eigsh, real_ritz = lmg.eigsh, lmg._lowest_ritz

    def eigsh(ham, **kwargs):
        solves.append((ham, kwargs["v0"]))
        return real_eigsh(ham, **kwargs)

    def ritz(alphas, off):
        tridiagonals.append((alphas.copy(), off.copy()))
        return real_ritz(alphas, off)

    with monkeypatch.context() as patch:
        patch.setattr(lmg, "eigsh", eigsh)
        patch.setattr(lmg, "_lowest_ritz", ritz)
        ground_state(LmgParams(n_particles=n, lam=lam), sector)
    (ham, v0), m = solves[0], tridiagonals[-1][0].size
    return ham, v0, m, tridiagonals


# (N, lam, sector) with step counts m of 60, 160, 80 at N = 50 and 130,
# 50 (full space, dim 80,601), 110 at N = 400
STORE_CASES = [
    (50, 1.5, "even"),
    (50, 3.0, "full"),
    (50, 1.0, (0, 1)),
    (400, 3.0, "even"),
    (400, 0.3, "full"),
    (400, 1.0, (1, 0)),
]


@pytest.mark.parametrize("n, lam, sector", STORE_CASES)
def test_output_bytes_do_not_depend_on_how_many_vectors_are_stored(monkeypatch, n, lam, sector):
    ham, v0, m, _ = _recorded(monkeypatch, n, lam, sector)
    dim = v0.size
    matvecs = []
    real_matvec = lmg.csr_matvec

    def counting(*args):
        matvecs.append(None)
        return real_matvec(*args)

    monkeypatch.setattr(lmg, "csr_matvec", counting)
    theta, vec = lmg.eigsh(ham, v0=v0)
    default_cap = max(2, lmg._KRYLOV_STORE_FLOATS // dim)
    for cap in sorted({2, m - 1, m, m + 1, default_cap}):
        monkeypatch.setattr(lmg, "_KRYLOV_STORE_FLOATS", cap * dim)
        matvecs.clear()
        got_theta, got_vec = lmg.eigsh(ham, v0=v0)
        assert got_theta.tobytes() == theta.tobytes(), cap
        assert got_vec.tobytes() == vec.tobytes(), cap
        # one matvec per step of the first pass, one per replayed vector
        assert len(matvecs) == m + max(0, m - cap), cap


def test_default_store_covers_every_solve_up_to_n100():
    for n in (50, 100):
        dim = lmg._sector_structure(n, (0, 0))[0].shape[0]
        assert lmg._KRYLOV_STORE_FLOATS // dim >= 90
    assert lmg._KRYLOV_STORE_FLOATS // lmg._sector_structure(400, (0, 0))[0].shape[0] == 12


RITZ_CASES = [
    (3, 1.3, (1, 1)),  # one-state sector: a 1x1 tridiagonal
    (50, 0.0, "even"),  # breakdown at step 1, also 1x1
    (50, 1.5, "even"),
    (50, 3.0, "full"),
    (400, 1.5, "even"),
]


@pytest.mark.parametrize("n, lam, sector", RITZ_CASES)
def test_direct_lapack_check_equals_eigh_tridiagonal(monkeypatch, n, lam, sector):
    *_, tridiagonals = _recorded(monkeypatch, n, lam, sector)
    if lam == 0.0 or n == 3:
        assert [a.size for a, _ in tridiagonals] == [1]
    for alphas, off in tridiagonals:
        theta, y = lmg._lowest_ritz(alphas, off)
        want_theta, want_y = eigh_tridiagonal(
            alphas, off[: alphas.size - 1], select="i", select_range=(0, 0)
        )
        assert theta.dtype == want_theta.dtype and theta.tobytes() == want_theta.tobytes()
        assert y.shape == want_y.shape and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("value", [-0.0, 5e-324, -3.7, 1e300])
def test_direct_lapack_check_on_one_by_one(value):
    theta, y = lmg._lowest_ritz(np.array([value]), np.array([123.0]))
    want_theta, want_y = eigh_tridiagonal([value], [], select="i", select_range=(0, 0))
    assert theta.tobytes() == want_theta.tobytes() and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_raises_linalg_error(monkeypatch, routine):
    real = getattr(lmg, routine)

    def failing(*args):
        *out, _ = real(*args)
        return (*out, 1)

    monkeypatch.setattr(lmg, routine, failing)
    ham = lmg._hamiltonian(LmgParams(n_particles=12, lam=0.9), (0, 0))
    with pytest.raises(np.linalg.LinAlgError, match="info=1"):
        lmg.eigsh(ham, v0=np.ones(ham.shape[0]))


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
def test_zero_or_non_finite_start_is_refused(bad):
    ham = lmg._hamiltonian(LmgParams(n_particles=12, lam=0.9), (0, 0))
    v0 = np.zeros(ham.shape[0]) if bad == 0.0 else np.ones(ham.shape[0])
    v0[-1] = bad
    with pytest.raises(ValueError, match="v0 must be finite and nonzero"):
        lmg.eigsh(ham, v0=v0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_ham_is_refused(bad):
    # a stored NaN or inf meets every matvec (times 0 it is NaN): step 1
    ham = sp.diags([1.0, bad, 2.0]).tocsr()
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="step 1 .* not finite"):
        lmg.eigsh(ham, v0=np.ones(3))


@pytest.mark.parametrize("n", [3, 7, 50])
@pytest.mark.parametrize("sector", [(0, 0), (0, 1), (1, 0), (1, 1), "full"])
def test_parity_signature_is_read_from_the_sector(n, sector):
    result = ground_state(LmgParams(n_particles=n, lam=1.7), sector)
    want = [parity_expval(result.state, j) for j in (1, 2, 3)]
    if sector == "full":  # the same sum, term for term
        assert result.parity_signature.tobytes() == np.array(want).tobytes()
    else:  # the same terms, summed without the other sectors' zeros
        np.testing.assert_allclose(result.parity_signature, want, rtol=1e-15, atol=0)
        signs = [(-1) ** ((n - sector[0] - sector[1]) % 2), (-1) ** sector[0], (-1) ** sector[1]]
        assert (np.sign(result.parity_signature) == signs).all()
