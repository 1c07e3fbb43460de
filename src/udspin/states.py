"""Named symmetric multi-quDit states and their closed-form moments.

Three families are provided:

* coherent states |z>: every particle occupies the same single-particle
  orbital z in C^D, giving multinomial amplitudes over occupations;
* even cat states: the projection of |z> onto the sector where the
  occupations of levels 2..D are all even, i.e. an equal-weight
  superposition of the 2**(D-1) sign-flipped coherent components
  |z_1, +-z_2, ..., +-z_D>;
* NOON-type states: equal-weight superpositions of the D single-level
  condensates |N e_j> with tunable phases.

For each family the closed-form first and second moments of the
collective operators S_ij are written once, as the array expression of
its *_expval_tables function next to the state-vector constructor, so
the two routes can be cross-checked numerically; per-entry names read
one entry of that table.
Closed forms are evaluated scale-invariantly (powers of t_b / |z|^2,
which lie in [-1, 1]) and stay finite for particle numbers in the
hundreds where naive powers of |z|^(2N) would overflow.

Level indices are 1-based (see basis module); level 1 is the reference
level of a cat state and must carry a nonzero amplitude for the closed
forms, which assume the representative normalization z_1 = 1.
"""

from __future__ import annotations

import numpy as np

from .basis import RowSet, SymmetricBasis, SymmetricState, _frozen, _levels0
from .errors import EmptySectorError, IntegrityError, check_integer

__all__ = [
    "representative",
    "dscs",
    "dscs_overlap",
    "dscs_transition_sij",
    "dscs_expval_tables",
    "parity_apply",
    "parity_expval",
    "project_even",
    "project_odd",
    "dcat",
    "dcat_norm_squared",
    "dcat_expval_sij",
    "dcat_expval_tables",
    "nodon",
    "nodon_expval_sij_skl",
    "nodon_expval_tables",
]


def _as_orbital(z, n_levels: int | None = None) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).ravel()
    if n_levels is not None and z.size != n_levels:
        raise ValueError(f"orbital has {z.size} components, expected {n_levels}")
    if z.size < 2:
        raise ValueError("orbital needs at least two components")
    if not np.isfinite(z).all():
        raise ValueError("orbital components must be finite")
    if np.vdot(z, z).real == 0.0:
        raise ValueError("orbital must be nonzero")
    return z


def representative(z, level: int = 1) -> np.ndarray:
    """Rescale z so the given level (default 1) has amplitude exactly 1."""
    z = _as_orbital(z)
    pivot = z[_levels0(z.size, level)]
    if pivot == 0:
        raise ValueError(f"level-{level} amplitude is zero, cannot rescale")
    return z / pivot


def _coherent_amplitudes(rows: RowSet, z: np.ndarray) -> np.ndarray:
    """Amplitudes sqrt(N!/prod n_i!) prod z_i^n_i / |z|^N of the unit-norm
    coherent state |z> on a row set, from its cached log-multinomials.

    Log-space evaluation keeps the multinomial weights finite for any
    supported particle number; rows that occupy a level with z_i = 0 get 0.
    """
    norm2 = float(np.vdot(z, z).real)
    finite = z != 0
    logz = np.zeros(z.size, dtype=np.complex128)
    logz[finite] = np.log(z[finite])
    w = rows.floats @ logz
    log_amp = rows.half_log_mult + w.real - 0.5 * rows.n_particles * np.log(norm2)
    coeffs = np.exp(log_amp + 1j * w.imag)
    if not finite.all():
        dead = (rows.rows[:, ~finite] > 0).any(axis=1)
        coeffs[dead] = 0.0
    return coeffs


def dscs(basis: SymmetricBasis, z) -> SymmetricState:
    """Coherent state |z>: amplitudes sqrt(N!/prod n_i!) prod z_i^n_i / |z|^N."""
    z = _as_orbital(z, basis.n_levels)
    coeffs = _coherent_amplitudes(basis.full_rows, z)
    return SymmetricState(basis, _frozen(coeffs)).normalized()


def dscs_overlap(z_bra, z_ket, n_particles: int) -> complex:
    """<z'|z> = (z'* . z)**N / (|z'| |z|)**N, unit-stable power form."""
    n = check_integer(n_particles, 1, None, "n_particles")
    zb = _as_orbital(z_bra)
    zk = _as_orbital(z_ket, zb.size)
    inner = complex(np.vdot(zb, zk))
    scale = float(np.linalg.norm(zb) * np.linalg.norm(zk))
    return (inner / scale) ** n


def dscs_transition_sij(z_bra, z_ket, n_particles: int, i: int, j: int) -> complex:
    """<z'| S_ij |z>: N z'_i* z_j (z'* . z)^(N-1) / (|z'| |z|)^N."""
    n = check_integer(n_particles, 1, None, "n_particles")
    zb = _as_orbital(z_bra)
    zk = _as_orbital(z_ket, zb.size)
    i0, j0 = _levels0(zb.size, i, j)
    nb, nk = np.linalg.norm(zb), np.linalg.norm(zk)
    unit = complex(np.vdot(zb, zk)) / (nb * nk)
    return complex(n * np.conj(zb[i0]) * zk[j0] * unit ** (n - 1) / (nb * nk))


def dscs_expval_tables(z, n_particles: int):
    """Closed-form (S, Q) moment tables for |z>, same layout as expval_tables.

    With P = z* z^T / |z|^2: S = N P and
    Q[i, j, k, l] = N P_il delta_jk + N (N - 1) P_il P_kj.
    """
    z = _as_orbital(z)
    n = check_integer(n_particles, 1, None, "n_particles")
    P = np.outer(np.conj(z), z) / np.vdot(z, z).real
    Q = n * np.einsum("il,jk->ijkl", P, np.eye(z.size))
    Q += n * (n - 1) * np.einsum("il,kj->ijkl", P, P)
    return n * P, Q


# ---------------------------------------------------------------------------
# parity operators and even projection


def _level_signs(basis: SymmetricBasis, j: int) -> np.ndarray:
    """(-1)^(n_j) for every occupation of the basis."""
    (j0,) = _levels0(basis.n_levels, j)
    return 1.0 - 2.0 * (basis.occupations[:, j0] % 2)


def parity_apply(state: SymmetricState, j: int) -> SymmetricState:
    """Pi_j |psi>: flips the sign of components with odd occupation of level j."""
    return SymmetricState(state.basis, _level_signs(state.basis, j) * state.coeffs)


def parity_expval(state: SymmetricState, j: int) -> float:
    """<Pi_j> = sum_n (-1)^(n_j) |c_n|^2, real by construction."""
    return float(np.sum(_level_signs(state.basis, j) * np.abs(state.coeffs) ** 2))


def _project(state: SymmetricState, parity: str):
    even = state.basis.parity_codes == 0
    kept = np.where(even == (parity == "even"), state.coeffs, 0.0)
    sq = float(np.sum(np.abs(kept) ** 2))
    if sq < 1e-14:
        raise EmptySectorError(f"{parity}-parity projection annihilated the state")
    return SymmetricState(state.basis, kept), sq


def project_even(state: SymmetricState):
    """Project onto even occupations of levels 2..D.

    Returns (projected_state, squared_norm); the projected state is NOT
    renormalized.  Raises EmptySectorError if the projection vanishes.
    """
    return _project(state, "even")


def project_odd(state: SymmetricState):
    """Complement of project_even; same return convention."""
    return _project(state, "odd")


# ---------------------------------------------------------------------------
# even cat states


def _parity_signs(n_levels: int) -> np.ndarray:
    """(2**(D-1), D) table of sign patterns; column 1 is always +1."""
    m = n_levels - 1
    bits = (np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1
    return np.hstack([np.ones((2**m, 1)), 1.0 - 2.0 * bits])


def _cat_weights(z: np.ndarray):
    """Normalized overlaps u_b = (z^b . z)/|z|^2 in [-1, 1] for all sign patterns."""
    x = np.abs(z) ** 2
    signs = _parity_signs(z.size)
    return (signs @ x) / x.sum(), signs


def dcat_norm_squared(z, n_particles: int) -> float:
    """Squared norm of the even projection of |z>: 2^(1-D) sum_b u_b^N."""
    n = check_integer(n_particles, 1, None, "n_particles")
    z = _as_orbital(z)
    u, _ = _cat_weights(z)
    return float(2.0 ** (1 - z.size) * np.sum(u**n))


def dcat(basis: SymmetricBasis, z) -> SymmetricState:
    """Normalized even cat state: projection of |z> onto the all-even sector.

    The amplitudes are evaluated on the sector's rows only.  Their squared
    norm is the projected norm of the unit-norm |z>, cross-checked against
    its closed form; a mismatch beyond 1e-10 raises IntegrityError.
    """
    z = _as_orbital(z, basis.n_levels)
    sector = basis.sector_rows((0,) * (basis.n_levels - 1))
    amps = _coherent_amplitudes(sector, z)
    sq = float(np.sum(np.abs(amps) ** 2))
    if sq < 1e-14:
        raise EmptySectorError("even-parity projection annihilated the state")
    closed = dcat_norm_squared(z, basis.n_particles)
    if not abs(sq - closed) <= 1e-10:  # NaN fails
        raise IntegrityError(
            f"cat-state norm mismatch: projection {sq!r} vs closed form {closed!r}"
        )
    coeffs = np.zeros(basis.dim, dtype=np.complex128)
    coeffs[sector.ranks] = amps / np.sqrt(sq)
    return SymmetricState(basis, _frozen(coeffs))


def _all_equal(d: int) -> np.ndarray:
    """(D, D, D, D) mask of the index tuples with i = j = k = l."""
    eye = np.eye(d)
    return np.einsum("ij,jk,kl->ijkl", eye, eye, eye)


def dcat_expval_tables(z, n_particles: int):
    """Closed-form (S, Q) moment tables for the even cat state.

    With representative z (z_1 = 1), sign patterns s_b, overlaps u_b and
    the sign sums w1[i] = sum_b s_bi u_b^(N-1), w2[i, k] = sum_b s_bi s_bk
    u_b^(N-2):

    S_ii = N |z_i|^2 w1[i] / (|z|^2 sum_b u_b^N), off-diagonal S vanishes;
    Q[i, j, k, l] = N p_ijkl z_i* z_l [delta_jk w1[i]/|z|^2
        + (N-1) z_k* z_j w2[i, k]/|z|^4] / sum_b u_b^N,

    where the pairing weight p_ijkl in {0, 1} is nonzero only when the
    indices pair up, (i=j, k=l), (i=k, j=l) or (i=l, j=k), as the even
    sector requires.
    """
    n = check_integer(n_particles, 1, None, "n_particles")
    z = representative(z)
    d = z.size
    u, signs = _cat_weights(z)
    den = float(np.sum(u**n))
    if den <= 0.0:
        raise EmptySectorError("even-parity projection annihilated the state")
    norm2 = float(np.sum(np.abs(z) ** 2))
    zc = np.conj(z)
    eye = np.eye(d)
    w1 = signs.T @ u ** (n - 1)
    S = np.diag(n * np.abs(z) ** 2 * w1 / (norm2 * den)).astype(np.complex128)
    inner = np.einsum("jk,i->ijk", eye, w1 / norm2).astype(np.complex128)
    if n >= 2:
        w2 = (signs * u[:, None] ** (n - 2)).T @ signs
        inner += (n - 1) * np.einsum("ik,j,k->ijk", w2, z, zc) / norm2**2
    pairs = (
        np.einsum("ij,kl->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
        - 2.0 * _all_equal(d)
    )
    Q = n * pairs * np.einsum("i,l,ijk->ijkl", zc, z, inner) / den
    return S, Q


def dcat_expval_sij(z, n_particles: int, i: int, j: int) -> complex:
    """<S_ij> on the even cat state: one entry of dcat_expval_tables."""
    S, _ = dcat_expval_tables(z, n_particles)
    return complex(S[_levels0(S.shape[0], i, j)])


# ---------------------------------------------------------------------------
# NOON-type states


def nodon(basis: SymmetricBasis, phases=None) -> SymmetricState:
    """Equal superposition of single-level condensates, D**(-1/2) sum_j e^(i phi_j)|N e_j>."""
    d = basis.n_levels
    if phases is None:
        phases = np.zeros(d)
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if phases.size != d:
        raise ValueError(f"need {d} phases, got {phases.size}")
    coeffs = np.zeros(basis.dim, dtype=np.complex128)
    occ = np.zeros(d, dtype=np.int64)
    for j0 in range(d):
        occ[:] = 0
        occ[j0] = basis.n_particles
        coeffs[basis.rank(occ)] = np.exp(1j * phases[j0]) / np.sqrt(d)
    return SymmetricState(basis, coeffs)


def nodon_expval_tables(n_particles: int, n_levels: int):
    """Closed-form (S, Q) moment tables for the NOON-type state, N >= 3.

    S = (N/D) 1 and Q[i, j, k, l] = (N/D) delta_il (delta_jk
    + (N-1) delta_ik delta_ij), both phase-independent.  For N <= 2 a
    single S_ij can hop between two condensates and extra cross terms
    appear, so smaller N is rejected.
    """
    n = check_integer(n_particles, 3, None, "n_particles")
    d = check_integer(n_levels, 1, None, "n_levels")
    eye = np.eye(d)
    S = (n / d * eye).astype(np.complex128)
    Q = n / d * (np.einsum("il,jk->ijkl", eye, eye) + (n - 1) * _all_equal(d))
    return S, Q.astype(np.complex128)


def nodon_expval_sij_skl(
    n_particles: int, n_levels: int, i: int, j: int, k: int, l: int
) -> complex:
    """<S_ij S_kl> on the NOON-type state: one entry of nodon_expval_tables."""
    _, Q = nodon_expval_tables(n_particles, n_levels)
    return complex(Q[_levels0(n_levels, i, j, k, l)])
