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

from functools import lru_cache

import numpy as np

from .basis import RowSet, SymmetricBasis, SymmetricState, _frozen, _levels0
from .errors import EmptySectorError, IntegrityError, _only, check_integer

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


def _as_orbitals(z, n_levels: int | None = None) -> np.ndarray:
    """A stack of orbitals, components along the last axis, each checked."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    size = z.shape[-1]
    if n_levels is not None and size != n_levels:
        raise ValueError(f"orbital has {size} components, expected {n_levels}")
    if size < 2:
        raise ValueError("orbital needs at least two components")
    if not np.isfinite(z).all():
        raise ValueError("orbital components must be finite")
    # capped at 1, no square overflows; a squared norm that underflows still fails
    if (np.add.reduce(np.minimum(np.abs(z), 1.0) ** 2, axis=-1) == 0.0).any():
        raise ValueError("orbital must be nonzero")
    return z


def _binary_scaled(z: np.ndarray) -> np.ndarray:
    """Each orbital of a stack times the power of two that puts its largest
    modulus in [0.5, 1): exact while no component turns subnormal, so the
    scale-invariant moment tables keep their bits, and squares of huge
    components stay finite."""
    _, exponent = np.frexp(np.abs(z).max(axis=-1, keepdims=True))
    return z * np.ldexp(1.0, -exponent)


def _as_orbital(z, n_levels: int | None = None) -> np.ndarray:
    return _as_orbitals(np.ravel(z), n_levels)


def representative(z, level: int = 1) -> np.ndarray:
    """Rescale z so the given level (default 1) has amplitude exactly 1.

    z may be a stack of orbitals (..., D); each is rescaled.
    """
    z = _as_orbitals(z)
    (k0,) = _levels0(z.shape[-1], level)
    pivot = z[..., k0 : k0 + 1]
    if (pivot == 0).any():
        raise ValueError(f"level-{level} amplitude is zero, cannot rescale")
    with np.errstate(over="ignore", invalid="ignore"):
        z = z / pivot
    if not np.isfinite(z).all():
        raise ValueError(f"level-{level} amplitude is too small: rescaling overflows")
    return z


def _coherent_amplitudes(rows: RowSet, z: np.ndarray) -> np.ndarray:
    """Amplitudes sqrt(N!/prod n_i!) prod z_i^n_i / |z|^N of the unit-norm
    coherent state |z> of each orbital of a (B, D) stack (one orbital is a
    stack of one) on a row set, from its cached log-multinomials: (B, rows).

    Log-space evaluation keeps the multinomial weights finite for any
    supported particle number; rows that occupy a level with z_i = 0 get 0.
    Each orbital takes its own products rows.floats @ log z and vdot(z, z):
    a stacked rows.floats @ log(z).T sums in another order, and moved 2,783
    of the 42,471 amplitudes of the default N = 50 grid by a bit."""
    z = np.atleast_2d(z)
    # an orbital whose vdot could overflow is binary-scaled; the others keep their bits
    z = np.where(np.abs(z).max(axis=-1, keepdims=True) < 2.0**500, z, _binary_scaled(z))
    finite = z != 0
    logz = np.zeros(z.shape, dtype=np.complex128)
    logz[finite] = np.log(z[finite])
    w = np.stack([rows.floats @ orbital for orbital in logz])
    log_norm2 = np.log([np.vdot(orbital, orbital).real for orbital in z])[:, None]
    log_amp = rows.half_log_mult + w.real - 0.5 * rows.n_particles * log_norm2
    # a dead row, with particles where z_i = 0, counts log 0 as 0 and can overflow exp: skip it
    live = (rows.floats @ ~finite.T == 0).T
    coeffs = np.zeros(w.shape, dtype=np.complex128)
    coeffs[live] = np.exp(log_amp[live] + 1j * w.imag[live])
    return coeffs


def dscs(basis: SymmetricBasis, z) -> SymmetricState:
    """Coherent state |z>: amplitudes sqrt(N!/prod n_i!) prod z_i^n_i / |z|^N."""
    z = _as_orbital(z, basis.n_levels)
    coeffs = _coherent_amplitudes(basis.full_rows, z)[0]
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
    A stack of orbitals (..., D) gives stacked tables (..., D, D) and
    (..., D, D, D, D).
    """
    z = _binary_scaled(_as_orbitals(z))
    n = check_integer(n_particles, 1, None, "n_particles")
    norm2 = np.add.reduce(np.abs(z) ** 2, axis=-1)[..., None, None]
    P = np.conj(z)[..., :, None] * z[..., None, :] / norm2
    Q = n * np.einsum("...il,jk->...ijkl", P, np.eye(z.shape[-1]))
    Q += n * (n - 1) * np.einsum("...il,...kj->...ijkl", P, P)
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


def _all_equal(d: int) -> np.ndarray:
    """(D, D, D, D) mask of the index tuples with i = j = k = l."""
    eye = np.eye(d)
    return np.einsum("ij,jk,kl->ijkl", eye, eye, eye)


@lru_cache(maxsize=None)
def _cat_constants(n_levels: int):
    """The constants of the even cat state of D levels, built once per D.

    Returns the (2**(D-1), D) sign patterns s_b, whose column 1 is always
    +1; their products s_bi s_bk laid out (D, D, 2**(D-1)); and the
    (D, D, D, D) pairing mask p_ijkl of dcat_expval_tables.
    """
    m = n_levels - 1
    bits = (np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1
    signs = np.hstack([np.ones((2**m, 1)), 1.0 - 2.0 * bits])
    sign_pairs = signs.T[:, None, :] * signs.T[None, :, :]
    eye = np.eye(n_levels)
    pairs = (
        np.einsum("ij,kl->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
        - 2.0 * _all_equal(n_levels)
    )
    for table in (signs, sign_pairs, pairs):
        table.flags.writeable = False
    return signs, sign_pairs, pairs


def _even_parts(a, b, ks):
    """log(1 + q^j), q = (a - b)/(a + b), for a, b >= 0 and each exponent j of
    ks along a new last axis: (a + b)^j (1 + q^j) = (a + b)^j + (a - b)^j sums a
    sign pattern and its negative as one term >= 0, free of cancellation."""
    s = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log1p(-2.0 * np.minimum(a, b) / np.where(s > 0.0, s, np.inf))
        log_qj = np.where(ks > 0, ks * log_q[..., None], 0.0)  # log |q|^j
        negative = (a < b)[..., None] & (ks % 2 == 1)  # q^j < 0
        return np.where(negative, np.log(-np.expm1(log_qj)), np.log1p(np.exp(log_qj)))


def dcat_norm_squared(z, n_particles: int):
    """Squared norm of the even projection of |z>: 2^(1-D) sum_b u_b^N, with the
    patterns b paired with their negatives (see _even_parts): a = |z_1|^2 and
    b_s = |sum_c s_c |z_c|^2| over levels c >= 2, one pattern s of each pair.
    A stack of orbitals (..., D) gives an array: every sum runs along its
    own orbital, so each entry is the float of a one-orbital call."""
    n = check_integer(n_particles, 1, None, "n_particles")
    x = np.abs(_binary_scaled(_as_orbitals(z))) ** 2  # degree 0: no square overflows
    a, b = x[..., :1], np.abs((x[..., None, 1:] * _cat_constants(x.shape[-1] - 1)[0]).sum(-1))
    ratio = (a + b) / x.sum(-1, keepdims=True)
    terms = ratio**n * np.exp(_even_parts(a, b, np.array([n]))[..., 0])
    norms = 2.0 ** (1 - x.shape[-1]) * terms.sum(-1)
    return norms if norms.ndim else float(norms)


def _dcats(basis: SymmetricBasis, z) -> list:
    """The cat pass: per orbital of a (B, D) stack, its normalized even cat
    state or the error a one-orbital dcat raises.  One dcat_norm_squared
    call checks the stack and gives the closed-form norms (when it refuses
    the stack, each orbital is passed alone), then one amplitude pass over
    the sector's rows.  Each squared norm is the projected norm of the
    unit-norm |z>, cross-checked against its closed form: a relative
    mismatch beyond 1e-10 is an IntegrityError.  Each state holds its own
    coefficients on the sector, so a state kept holds neither the stack nor
    a full-space vector."""
    z = np.asarray(z, dtype=np.complex128)
    if z.shape[-1] != basis.n_levels:
        raise ValueError(f"orbital has {z.shape[-1]} components, expected {basis.n_levels}")
    try:
        closed = np.broadcast_to(dcat_norm_squared(z, basis.n_particles), len(z)).tolist()
    except ValueError as exc:
        return [exc] if len(z) == 1 else [cat for o in z for cat in _dcats(basis, o[None])]
    sector = basis.sector_rows((0,) * (basis.n_levels - 1))
    amps = _coherent_amplitudes(sector, z)
    cats = []
    for row, sq, norm in zip(amps, np.add.reduce(np.abs(amps) ** 2, axis=-1).tolist(), closed):
        if sq < 1e-14:
            cats.append(EmptySectorError("even-parity projection annihilated the state"))
        elif not abs(sq - norm) <= 1e-10 * norm:  # NaN fails
            mismatch = f"cat-state norm mismatch: projection {sq!r} vs closed form {norm!r}"
            cats.append(IntegrityError(mismatch))
        else:
            cats.append(SymmetricState._on_rows(basis, sector, row / np.sqrt(sq)))
    return cats


def dcat(basis: SymmetricBasis, z) -> SymmetricState:
    """Normalized even cat state: projection of |z> onto the all-even sector,
    the one-row case of the cat pass _dcats."""
    return _only(_dcats(basis, [np.ravel(z)]))


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
    sector requires.  A stack of orbitals (..., D) gives stacked tables
    (..., D, D) and (..., D, D, D, D).
    """
    n = check_integer(n_particles, 1, None, "n_particles")
    z = _binary_scaled(representative(z))
    d = z.shape[-1]
    signs, sign_pairs, pairs = _cat_constants(d)
    x = np.abs(z) ** 2
    norm2 = np.add.reduce(x, axis=-1)[..., None]
    u = np.add.reduce(x[..., None, :] * signs, axis=-1) / norm2  # u_b = (z^b . z)/|z|^2
    den = np.add.reduce(u**n, axis=-1)
    if (den <= 0.0).any():
        raise EmptySectorError("even-parity projection annihilated the state")
    zc = np.conj(z)
    w1 = np.add.reduce(signs.T * (u ** (n - 1))[..., None, :], axis=-1)
    S = np.zeros(z.shape + (d,), dtype=np.complex128)
    S[..., range(d), range(d)] = n * x * w1 / (norm2 * den[..., None])
    inner = np.einsum("jk,...i->...ijk", np.eye(d), w1 / norm2).astype(np.complex128)
    if n >= 2:
        w2 = np.add.reduce(sign_pairs * (u ** (n - 2))[..., None, None, :], axis=-1)
        pair_term = np.einsum("...ik,...j,...k->...ijk", w2, z, zc)
        inner += (n - 1) * pair_term / norm2[..., None, None] ** 2
    Q = n * pairs * np.einsum("...i,...l,...ijk->...ijkl", zc, z, inner)
    return S, Q / den[..., None, None, None, None]


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
    if not np.isfinite(phases).all():
        raise ValueError("nodon phases must be finite")
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
