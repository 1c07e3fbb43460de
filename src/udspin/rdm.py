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
included as a small-system oracle.  Entropy reports use normalized
linear entropies, prefactor d_eff/(d_eff - 1), and von Neumann entropies
in base d_eff, so every entropy lies in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .basis import (
    SymmetricState,
    _levels0,
    _state_sector,
    expval_matrix,
    expval_tables,
    occupation_ranks,
)
from .errors import _ROUNDOFF, CapacityError, IntegrityError, check_integer, check_range
from .states import dcat_expval_tables

__all__ = [
    "level_populations",
    "level_rdm",
    "level_purity",
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
    "entropies",
    "partial_trace_oracle",
    "check_density_matrix",
]


# ---------------------------------------------------------------------------
# level reduction


def level_populations(state: SymmetricState, i: int) -> np.ndarray:
    """Marginal probabilities P(n_i = p), p = 0..N; the level-RDM spectrum."""
    basis = state.basis
    (i0,) = _levels0(basis.n_levels, i)
    c, rows = state.coeffs, basis.occupations
    sector = _state_sector(state)
    if sector is not None:  # skips only exact zeros: the same sums, in the same order
        c, rows = c[sector.ranks], sector.rows
    return np.bincount(rows[:, i0], weights=np.abs(c) ** 2, minlength=basis.n_particles + 1)


def level_rdm(state: SymmetricState, i: int) -> np.ndarray:
    """Level reduction as an (N+1) x (N+1) diagonal density matrix."""
    return np.diag(level_populations(state, i))


def level_purity(state: SymmetricState, i: int) -> float:
    pops = level_populations(state, i)
    return float(np.sum(pops**2))


def dscs_level_weights(n_particles: int, x: float, y: float) -> np.ndarray:
    """Level-RDM spectrum of a coherent state, closed binomial form.

    x is the squared amplitude of the chosen level, y the summed squared
    amplitude of the others.  Entry n is C(N, n) x^(N-n) y^n / (x+y)^N,
    which is the weight of occupation N - n of the chosen level (the
    returned array is indexed by n, not by occupation).
    """
    n = check_integer(n_particles, 1, None, "n_particles")
    if x < 0 or y < 0 or x + y == 0:
        raise ValueError("need x, y >= 0 with x + y > 0")
    ks = np.arange(n + 1)
    if x == 0.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    if y == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    log_binom = gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
    log_w = log_binom + (n - ks) * math.log(x) + ks * math.log(y) - n * math.log(x + y)
    return np.exp(log_w)


# ---------------------------------------------------------------------------
# one- and two-particle reductions


def one_qudit_rdm_from_tables(S: np.ndarray, n_particles: int) -> np.ndarray:
    """rho1[i, j] = <S_ji>/N from a first-moment table."""
    return np.asarray(S, dtype=np.complex128).T / n_particles


def one_qudit_rdm(state: SymmetricState) -> np.ndarray:
    return one_qudit_rdm_from_tables(expval_matrix(state), state.basis.n_particles)


def two_qudit_rdm_from_tables(S: np.ndarray, Q: np.ndarray, n_particles: int) -> np.ndarray:
    """rho2 from moment tables; composite index (i-1) D + (k-1), hermitized."""
    n = check_integer(n_particles, 2, None, "n_particles of a two-particle reduction")
    S = np.asarray(S, dtype=np.complex128)
    Q = np.asarray(Q, dtype=np.complex128)
    d = S.shape[0]
    delta = np.einsum("il,jk->ikjl", np.eye(d), S)
    rho = ((Q.transpose(1, 3, 0, 2) - delta) / (n * (n - 1))).reshape(d * d, d * d)
    return 0.5 * (rho + rho.conj().T)


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


def _effective_dim(kind: str, n_particles: int, n_levels: int) -> int:
    if kind == "level":
        return n_particles + 1
    if kind == "one_atom":
        return n_levels
    if kind == "two_atom":
        return n_levels**2
    raise ValueError(f"unknown reduction kind {kind!r}")


def spectrum_entropies(
    weights, kind: str, n_particles: int, n_levels: int
) -> EntropyReport:
    """Entropy report from an eigenvalue spectrum (need not be sorted)."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    check_range(w.min(), "unit", "reduced-density-matrix eigenvalue", _EIG_FAIL)
    check_range(w.max(), "unit", "reduced-density-matrix eigenvalue", _EIG_FAIL)
    w = np.clip(w, 0.0, 1.0)  # roundoff negatives above -1e-8 snap to zero
    d_eff = _effective_dim(kind, n_particles, n_levels)
    purity = float(np.sum(w**2))
    linear = d_eff / (d_eff - 1.0) * (1.0 - purity)
    nz = w[w > _EIG_CLIP]
    # the + 0.0 turns an exact -0.0 (pure state) into +0.0
    von_neumann = float(-(nz * np.log(nz)).sum() / math.log(d_eff)) + 0.0
    return EntropyReport(
        purity=purity,
        linear=check_range(linear, "unit", "linear entropy", _ROUNDOFF),
        von_neumann=check_range(von_neumann, "unit", "von Neumann entropy", _ROUNDOFF),
    )


def entropies(rho, kind: str, n_particles: int, n_levels: int) -> EntropyReport:
    """Entropy report for a reduced density matrix (assumed Hermitian)."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=np.complex128))
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
