"""Reduced density matrices and entanglement measures for symmetric states.

Three reductions are supported, all computable in polynomial time from
collective-operator moments because the state never leaves the
symmetric sector:

* the level reduction, diagonal in the occupation of one chosen level
  (eigenvalues are the marginal occupation probabilities);
* the one-particle reduction rho1[i, j] = <S_ji>/N;
* the two-particle reduction
  rho2[(i, k), (j, l)] = (<S_ji S_lk> - delta_il <S_jk>) / (N (N - 1)),
  laid out with composite row index (i-1) D + (k-1) so that product
  states satisfy rho2 = kron(rho1, rho1).

A brute-force partial trace over the full D**N tensor product is
included as a small-system oracle.  Entropies follow one rule, applied in
one array pass to a stack of spectra (a single spectrum is the one-row
case): eigenvalues within 1e-8 of [0, 1], normalized linear entropies,
prefactor d_eff/(d_eff - 1), and von Neumann entropies in base d_eff, so
every entropy lies in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    SymmetricState,
    _as_stack,
    _levels0,
    _scipy_extension,
    expval_matrix,
    expval_tables,
    occupation_ranks,
)
from .errors import _ROUNDOFF, CapacityError, EmptySectorError, IntegrityError, check_integer
from .errors import check_range, check_ranges
from .states import _cat_constants, _even_parts, dcat_expval_tables

__all__ = [
    "level_populations",
    "level_rdm",
    "level_purity",
    "level_weights",
    "dscs_level_weights",
    "one_qudit_rdm",
    "one_qudit_rdm_from_tables",
    "two_qudit_rdm",
    "two_qudit_rdm_from_tables",
    "two_qudit_purity",
    "two_qudit_purity_from_tables",
    "dcat_one_qudit_purity",
    "dcat_two_qudit_purity",
    "EntropyReport",
    "spectrum_entropies",
    "linear_entropies",
    "entropies",
    "partial_trace_oracle",
    "check_density_matrix",
]


# ---------------------------------------------------------------------------
# level reduction


def level_populations(states, i: int) -> np.ndarray:
    """Marginal probabilities P(n_i = p), p = 0..N, the level-RDM spectrum, of
    one state, or a stack of them for a sequence of states on one basis, in
    one bincount whose bins each sum their state's rows in row order (states
    on no one sector go state by state)."""
    single, states, sector, c = _as_stack(states)
    if c is None:
        return np.stack([level_populations(state, i) for state in states])
    basis, m, width = states[0].basis, len(states), states[0].basis.n_particles + 1
    (i0,) = _levels0(basis.n_levels, i)
    # a sector skips only exact zeros: the same sums, in the same order
    rows = basis.occupations if sector is None else sector.rows
    bins = (rows[:, i0] + width * np.arange(m)[:, None]).ravel()
    weights = (np.abs(c) ** 2).ravel()
    pops = np.bincount(bins, weights=weights, minlength=m * width).reshape(m, width)
    return pops[0] if single else pops


def level_rdm(state: SymmetricState, i: int) -> np.ndarray:
    """Level reduction as an (N+1) x (N+1) diagonal density matrix."""
    return np.diag(level_populations(state, i))


def level_purity(state: SymmetricState, i: int) -> float:
    pops = level_populations(state, i)
    return float(np.sum(pops**2))


def level_weights(x, level: int, n_particles: int, cat: bool = False) -> np.ndarray:
    """Level-RDM spectra of coherent states, or even cat states with cat=True,
    from the squared moduli x = |z|^2 of a stack of orbitals (..., D).

    Entry j is P(n_k = N - j) = C(N, j) x_k^(N-j) y_j / |x|^N, in log space;
    y_j weighs j particles in the other levels, r^j for |z> (r = sum_{i!=k}
    x_i).  The cat's levels c other than 1 and k hold even numbers: over sign
    patterns s of them, with a = x_1 (0 if k = 1) and b_s = |sum_c s_c x_c|,
    y_j = sum_s (a + b_s)^j (1 + q_s^j), q_s = (a - b_s)/(a + b_s), a sum of
    terms >= 0.  Entries the parity forbids are exactly 0, and the others are
    divided by their sum, the squared norm of the even projection.
    """
    n = check_integer(n_particles, 1, None, "n_particles")
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    (k0,) = _levels0(d, level)
    ufuncs = _scipy_extension("scipy.special._special_ufuncs")  # not scipy.special's package
    gammaln, xlogy = ufuncs.gammaln, ufuncs.xlogy  # xlogy takes libm's log, as math.log does

    ks = np.arange(n + 1)
    log_binom = gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
    chosen, rest = x[..., k0], sum(x[..., i] for i in range(d) if i != k0)
    total = chosen + rest
    if not cat:
        with np.errstate(divide="ignore"):  # log 0 = -inf, and 0 log 0 = 0
            log_w = log_binom + xlogy(n - ks, chosen[..., None]) + xlogy(ks, rest[..., None])
            return np.exp(log_w - xlogy(n, total)[..., None])
    signs = _cat_constants(d - 1)[0][:, 1 if k0 else 0 :]  # s, one of each pair +-s
    a = x[..., :1] if k0 else np.zeros_like(x[..., :1])
    b = np.abs(x[..., [i for i in range(1, d) if i != k0]] @ signs.T)
    log_w = _even_parts(a, b, ks)
    log_w += log_binom + xlogy(n - ks, (chosen / total)[..., None, None])
    log_w += xlogy(ks, ((a + b) / total[..., None])[..., None])
    w = np.add.reduce(np.exp(log_w, out=log_w), axis=-2)
    w[..., (ks if k0 == 0 else n - ks) % 2 == 1] = 0.0
    norm = np.add.reduce(w, axis=-1, keepdims=True)
    if (norm < 1e-14 * 2 ** (d - 1)).any():
        raise EmptySectorError("even-parity projection annihilated the state")
    return w / norm


def dscs_level_weights(n_particles: int, x: float, y: float) -> np.ndarray:
    """Level-RDM spectrum of a coherent state, closed binomial form: entry n
    is C(N, n) x^(N-n) y^n / (x+y)^N, the weight of occupation N - n of the
    chosen level, whose squared amplitude is x (y: the others' summed)."""
    if x < 0 or y < 0 or x + y == 0:
        raise ValueError("need x, y >= 0 with x + y > 0")
    return level_weights(np.array([x, y], dtype=np.float64), 1, n_particles)


# ---------------------------------------------------------------------------
# one- and two-particle reductions


def one_qudit_rdm_from_tables(S: np.ndarray, n_particles: int) -> np.ndarray:
    """rho1[i, j] = <S_ji>/N from a first-moment table, or a stack of them."""
    return np.asarray(S, dtype=np.complex128).swapaxes(-1, -2) / n_particles


def one_qudit_rdm(state: SymmetricState) -> np.ndarray:
    return one_qudit_rdm_from_tables(expval_matrix(state), state.basis.n_particles)


def two_qudit_rdm_from_tables(S: np.ndarray, Q: np.ndarray, n_particles: int) -> np.ndarray:
    """rho2 from moment tables, or stacks of them; composite index
    (i-1) D + (k-1), hermitized."""
    n = check_integer(n_particles, 2, None, "n_particles of a two-particle reduction")
    S = np.asarray(S, dtype=np.complex128)
    Q = np.asarray(Q, dtype=np.complex128)
    d = S.shape[-1]
    # Q_jilk - delta_il S_jk on a copy of Q laid out as rho2, subtracting on the
    # i = l blocks only: S + 0.0 subtracts a zero of S as +0, as the einsum
    # product delta_il S_jk writes it, so no sign of a zero in rho2 moves
    rho = np.einsum("...jilk->...ikjl", Q).copy()
    delta = (S + 0.0).swapaxes(-1, -2)
    for i in range(d):
        rho[..., i, :, :, i] -= delta
    rho /= n * (n - 1)
    rho = rho.reshape(S.shape[:-2] + (d * d, d * d))
    herm = np.conjugate(rho.swapaxes(-1, -2), out=np.empty_like(rho))
    herm += rho  # a complex sum, and a product with a real, have the bits of either order
    herm *= 0.5
    return herm


def two_qudit_rdm(state: SymmetricState) -> np.ndarray:
    return two_qudit_rdm_from_tables(*expval_tables(state), state.basis.n_particles)


def two_qudit_purity_from_tables(S: np.ndarray, Q: np.ndarray, n_particles: int) -> float:
    """tr(rho2^2) directly from moment tables, no d^2 x d^2 matrix built.

    Expanding tr(rho2^2) with rho2[(i,k),(j,l)] = (Q[j,i,l,k] -
    delta_il S[j,k])/(N(N-1)) gives three contractions: the double-Q
    term, the cross term (twice), and tr(S)^2.
    """
    n = check_integer(n_particles, 2, None, "n_particles of a two-particle reduction")
    S = np.asarray(S, dtype=np.complex128)
    Q = np.asarray(Q, dtype=np.complex128)
    t1 = np.sum(Q.transpose(1, 0, 3, 2) * Q)
    t2 = np.einsum("jikj,ik->", Q, S)
    t3 = np.trace(S) ** 2
    val = (t1 - 2.0 * t2 + t3) / (n * (n - 1)) ** 2
    if not (math.isfinite(val.real) and abs(val.imag) <= 1e-8 * max(1.0, abs(val.real))):
        raise IntegrityError(f"two-particle purity {val!r} is non-finite or not real")
    return float(val.real)


def two_qudit_purity(state: SymmetricState) -> float:
    return two_qudit_purity_from_tables(*expval_tables(state), state.basis.n_particles)


# ---------------------------------------------------------------------------
# cat-state purity fast paths


def dcat_one_qudit_purity(z, n_particles: int) -> float:
    """tr(rho1^2) = sum |<S_ij>|^2 / N^2 for the even cat state, from its
    closed first-moment table."""
    S = dcat_expval_tables(z, n_particles)[0]
    return float(np.sum(np.abs(S) ** 2)) / n_particles**2


def dcat_two_qudit_purity(z, n_particles: int) -> float:
    """tr(rho2^2) for the even cat state from its closed moment tables."""
    return two_qudit_purity_from_tables(*dcat_expval_tables(z, n_particles), n_particles)


# ---------------------------------------------------------------------------
# entropies


@dataclass(frozen=True)
class EntropyReport:
    """Purity plus normalized linear and von Neumann entropies of one reduction."""

    purity: float
    linear: float
    von_neumann: float


_EIG_CLIP = 1e-10
_EIG_FAIL = 1e-8


def _entropy_rows(w, kind: str, n_particles: int, n_levels: int):
    """The one entropy rule, on each spectrum along the last axis of w:
    eigenvalues within 1e-8 of [0, 1], roundoff negatives snapped to zero;
    the purity and the checked linear and von Neumann entropies."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    check_ranges(w.min(axis=-1), "unit", "reduced-density-matrix eigenvalue", _EIG_FAIL)
    check_ranges(w.max(axis=-1), "unit", "reduced-density-matrix eigenvalue", _EIG_FAIL)
    w = np.clip(w, 0.0, 1.0)
    d_eff = {"level": n_particles + 1, "one_atom": n_levels, "two_atom": n_levels**2}.get(kind)
    if d_eff is None:
        raise ValueError(f"unknown reduction kind {kind!r}")
    purity = np.add.reduce(w**2, axis=-1)
    linear = d_eff / (d_eff - 1.0) * (1.0 - purity)
    linear = check_ranges(linear, "unit", "linear entropy", _ROUNDOFF)
    terms = w * np.log(np.where(w > _EIG_CLIP, w, 1.0))  # log 1 = 0: dropped
    # 0.0 - s rather than -s: a pure state's entropy is +0.0, not -0.0
    von_neumann = 0.0 - np.add.reduce(terms, axis=-1) / math.log(d_eff)
    return purity, linear, check_ranges(von_neumann, "unit", "von Neumann entropy", _ROUNDOFF)


def spectrum_entropies(weights, kind: str, n_particles: int, n_levels: int) -> EntropyReport:
    """Entropy report from an eigenvalue spectrum (need not be sorted): the
    one-row case of linear_entropies."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    return EntropyReport(*map(float, _entropy_rows(w, kind, n_particles, n_levels)))


def linear_entropies(spectra, kind: str, n_particles: int, n_levels: int) -> np.ndarray:
    """spectrum_entropies(row).linear for each row of a stack of spectra, in
    one array pass."""
    return _entropy_rows(spectra, kind, n_particles, n_levels)[1]


def _spectra(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or a stack of them, in one call.  A
    matrix with a non-finite entry gets a NaN spectrum, which the entropy
    rule rejects at its own row, instead of failing the whole call."""
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if finite.all():  # no masked copy
        return np.linalg.eigvalsh(rho)
    w = np.linalg.eigvalsh(np.where(finite[..., None, None], rho, 0.0))
    w[~finite] = np.nan
    return w


def entropies(rho, kind: str, n_particles: int, n_levels: int) -> EntropyReport:
    """Entropy report for a reduced density matrix (assumed Hermitian)."""
    w = _spectra(np.asarray(rho, dtype=np.complex128))
    return spectrum_entropies(w, kind, n_particles, n_levels)


def check_density_matrix(rho, tol: float = 1e-10) -> None:
    """Raise IntegrityError unless rho is Hermitian, unit-trace and PSD."""
    rho = np.asarray(rho, dtype=np.complex128)
    if not np.allclose(rho, rho.conj().T, atol=tol):
        raise IntegrityError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-12:
        raise IntegrityError(f"density matrix trace {np.trace(rho)!r} != 1")
    check_range(np.linalg.eigvalsh(rho).min(), "nonneg", "density matrix eigenvalue", _EIG_FAIL)


# ---------------------------------------------------------------------------
# brute-force oracle


def partial_trace_oracle(state: SymmetricState, keep: int) -> np.ndarray:
    """Reduced density matrix by explicit partial trace over D**N indices.

    Expands the symmetric state into the full tensor-product space
    (particle 0 is the leftmost factor) and traces out all but `keep`
    particles.  Exponential cost: restricted to N <= 8, D <= 3.
    """
    gammaln = _scipy_extension("scipy.special._special_ufuncs").gammaln
    basis = state.basis
    n, d = basis.n_particles, basis.n_levels
    keep = check_integer(keep, 1, min(2, n), "keep")
    if n > 8 or d > 3:
        raise CapacityError("oracle restricted to N <= 8, D <= 3")
    total = d**n
    idx = np.arange(total)
    place = d ** np.arange(n - 1, -1, -1)
    digits = (idx[:, None] // place[None, :]) % d
    counts = np.stack([(digits == lvl).sum(axis=1) for lvl in range(d)], axis=1)
    ranks = occupation_ranks(counts)
    # amplitude of each tensor index: c_n / sqrt(multinomial(N; n))
    log_mult = gammaln(n + 1) - gammaln(counts + 1.0).sum(axis=1)
    psi = state.coeffs[ranks] * np.exp(-0.5 * log_mult)
    block = psi.reshape(d**keep, d ** (n - keep))
    return block @ block.conj().T
