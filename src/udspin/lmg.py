"""Three-level all-to-all interacting atom model and its phase diagram.

The Hamiltonian, in intensive normalization,

    H = (eps/N) (S_33 - S_11) - (lam/(N(N-1))) sum_{i != j} S_ij^2

couples every pair of atoms symmetrically, so it acts within the
symmetric sector and commutes with every level parity Pi_j.  The ground
state lies in the fully even sector (n_2, n_3 both even); diagonalization
restricts there by default, which also picks a deterministic
representative among the near-degenerate finite-N levels of the broken
phases.  A parity sector is assembled from its own S_ij^2 moves; the
full-space coupling is built only for sector "full" and build_hamiltonian.
Each sector keeps the CSR pattern of H, and every coupling writes its
entries into a fresh data array on that pattern, bit for bit what scipy's
sparse arithmetic gave.  Every sector, full space and the single-state
sector at N = 3 included, goes through one solver: a two-pass Lanczos
(eigsh here, lowest eigenvalue) without reorthogonalization, updating
preallocated vectors in place.  Its first pass keeps only the tridiagonal
coefficients until the lowest Ritz pair converges; its second replays
them, one matvec per step, to assemble the Ritz vector.  Lanczos
starts from the coherent state at the mean-field minimizer on the
sector's rows -- the variational cat on the even sector -- or from the
uniform vector where that restriction vanishes.  It draws no random
vector and sums with numpy rather than BLAS, so a row depends only on
(N, lam, eps), not on grid order, workers or BLAS threads.  A solve
that does not converge within a fixed step cap, or whose pair misses
||Hv - Ev|| <= 1e-10 (eps + lam), raises IntegrityError naming N, lam
and the sector.

Closed forms implemented alongside the numerics: the mean-field energy
surface over coherent states (1, alpha, beta), its stationary points,
and the thermodynamic ground energy, a piecewise function of the
coupling with second-order transitions at lam = eps/2 and 3 eps/2.
thermo_energy keeps pure-Python arithmetic so exact Fraction inputs
propagate through the branch formulas; the Hamiltonian takes them as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse._sparsetools import csr_matvec

from .basis import SymmetricBasis, SymmetricState, _frozen, _moves, expval_tables, shared_basis
from .errors import EmptySectorError, IntegrityError, check_integer
from .states import _coherent_amplitudes, dcat, parity_expval

__all__ = [
    "DENSE_EIG_LIMIT",
    "LmgParams",
    "GroundStateResult",
    "StationaryPoint",
    "build_hamiltonian",
    "parity_sector_indices",
    "even_sector_indices",
    "ground_state",
    "energy_surface",
    "stationary_point",
    "thermo_energy",
    "thermo_curvature",
    "variational_energy",
    "variational_cat",
]

# sectors of at most this many states need no iteration: Lanczos returns a
# one-state sector's diagonal entry at its first step (beta_1 = 0).  Not a
# branch of the solver; solve counts are classified against it
DENSE_EIG_LIMIT = 1

# ||Hv - Ev|| allowed per unit of (epsilon + lam); measured maxima stay below 1e-14
_RESIDUAL_TOL = 1e-10

# Lanczos stops once its residual estimate |beta_m y_m| is this small per
# unit of ||T||, far below _RESIDUAL_TOL.  Much tighter, the checks can
# miss the few steps before a ghost copy of the converged pair lifts the
# estimate again (at N = 50, 1e-15 doubled the steps of some solves)
_LANCZOS_TOL = 1e-13

# the tridiagonal is solved every this many steps, at a breakdown and at
# step dim: a check costs about as much as four steps at N = 50
_LANCZOS_CHECK_EVERY = 10

# a solve that has not converged in this many steps fails; first passes
# measured at N <= 2000 took at most 261
_LANCZOS_MAX_STEPS = 2000

# seed of the generator handed to eigsh with the start vector; the
# two-pass Lanczos never draws from it, so rows depend only on (N, lam, eps)
_RESTART_SEED = 0

_SECTOR_FORMS = "sector must be 'even', 'full' or a pair of 0/1 parities for levels 2 and 3"


@dataclass(frozen=True)
class LmgParams:
    """Model parameters; lam is the coupling in the same units as epsilon."""

    n_particles: int
    lam: float
    epsilon: float = 1.0
    n_levels: int = 3

    def __post_init__(self):
        check_integer(self.n_particles, 3, None, "n_particles")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"need finite epsilon > 0, got {self.epsilon!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"need finite lam >= 0, got {self.lam!r}")
        check_integer(self.n_levels, 3, 3, "n_levels (closed forms and Hamiltonian)")


@dataclass(frozen=True)
class StationaryPoint:
    """Real non-negative minimizer of the energy surface, with phase label."""

    alpha0: float
    beta0: float
    phase: str


@dataclass
class GroundStateResult:
    energy: float
    state: SymmetricState
    parity_signature: np.ndarray


def _assemble(occupations: np.ndarray, moves):
    """Splitting vector n_3 - n_1 and coupling sum_{i!=j} S_ij^2 on an
    occupation table, from its S_ij^2 move tables summed one (i, j) pair
    at a time: holds less than one concatenated COO."""
    coupling = sp.csr_matrix((occupations.shape[0],) * 2)
    for src, dst, amp in moves:
        coupling = coupling + sp.csr_matrix((amp, (dst, src)), shape=coupling.shape)
    return (occupations[:, 2] - occupations[:, 0]).astype(np.float64), coupling


@lru_cache(maxsize=16)
def _workspace(n_particles: int):
    """Occupation table, splitting vector and full-space coupling, once per
    N; only sector="full" and build_hamiltonian read it.  It holds the
    table, not the basis, so a basis shared_basis evicts is freed."""
    occ = shared_basis(n_particles, 3).occupations
    moves = (_moves(occ, i0, j0, 2) for i0, j0 in permutations(range(3), 2))
    return (occ, *_assemble(occ, moves))


@lru_cache(maxsize=64)
def _pattern(n_particles: int, sector):
    """CSR pattern of H on a sector (a parity pair, or "full"), as scipy's
    sp.diags(eps/N diag) - s coupling stores it: the coupling's entries
    plus, in column order, the diagonal of every row where n_3 != n_1.
    Returns the read-only (indptr, indices, on_diag, has_diag) that every
    H of the sector shares, the splitting vector and the coupling's values."""
    if sector == "full":
        _, diag, coupling = _workspace(n_particles)
    else:
        _, _, diag, coupling = _sector_structure(n_particles, sector)
    indptr, indices = coupling.indptr, coupling.indices
    has = diag != 0
    row = np.repeat(np.arange(diag.size, dtype=indices.dtype), np.diff(indptr))
    # a row's diagonal goes after its entries left of the diagonal
    slot = (indptr[:-1] + np.bincount(row[indices < row], minlength=diag.size))[has]
    grown = np.zeros(indptr.size, dtype=indptr.dtype)
    np.cumsum(has, out=grown[1:])
    return (
        _frozen(indptr + grown),
        _frozen(np.insert(indices, slot, np.flatnonzero(has))),
        _frozen(np.insert(np.zeros(indices.size, dtype=bool), slot, True)),
        _frozen(has),
        diag,
        coupling.data,
    )


def _hamiltonian(params: LmgParams, sector) -> sp.csr_matrix:
    """H = eps/N diag - lam/(N(N-1)) coupling on a sector, in floats
    (scipy.sparse has no dtype for exact Fraction couplings): a fresh data
    array on the sector's shared pattern, with the entries and bits of
    sp.diags(eps/N diag) - s coupling.  That subtraction stores no zero,
    so entries that are zero (every off-diagonal one at lam = 0) go."""
    n = params.n_particles
    indptr, indices, on_diag, has_diag, diag, couplings = _pattern(n, sector)
    data = np.empty(indices.size)
    data[on_diag] = float(params.epsilon) / n * diag[has_diag]
    data[~on_diag] = couplings * (-float(params.lam) / (n * (n - 1)))  # -(s C), bit for bit
    if not data.all():
        keep = data != 0
        kept = np.zeros(indices.size + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        data, indices, indptr = data[keep], indices[keep], kept[indptr]
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


class _NoConvergence(Exception):
    """Lanczos reached _LANCZOS_MAX_STEPS; ground_state names where."""


def eigsh(ham, *, k=1, which="SA", v0, rng=None):
    """Lowest eigenpair of the real symmetric `ham` by two-pass Lanczos,
    in scipy's eigsh shape: eigenvalues (1,) and eigenvectors (dim, 1).

    Both passes run the three-term recurrence without reorthogonalization
    on four preallocated vectors, with in-place updates and numpy's
    pairwise sums rather than BLAS ddot, whose threaded split reorders
    them with the BLAS thread count.  The first pass keeps only alpha_k =
    q_k.H q_k and beta_k, and every _LANCZOS_CHECK_EVERY steps takes the
    lowest pair (theta, y) of the tridiagonal T; it stops once |beta_m
    y_m| <= _LANCZOS_TOL ||T||, with ||T|| bounded by Gershgorin.  A
    vanishing beta (the start spans an invariant subspace, as the cat
    start |N,0,0> at lam = 0 or a one-state sector) gives an exact Ritz
    pair.  The second pass replays the stored alpha and beta, one matvec
    and the vector updates per step, and sums the Ritz vector: the same
    operations in the same order rebuild every q_k bit for bit, and only
    a few vectors are held, not a Krylov basis.  Orthogonality is lost
    only as Ritz values converge (Paige 1972), so the lowest pair stays
    reliable without reorthogonalization.  `ham` is taken as a float64
    CSR matrix (one already is used as it is) and must match v0, since the
    product kernel checks no bounds.  `rng` keeps eigsh's call shape; no
    restart vector is ever drawn from it.
    """
    if k != 1 or which != "SA":
        raise ValueError("only the lowest eigenpair (k=1, which='SA') is computed")
    ham = sp.csr_matrix(ham, dtype=np.float64)  # no copy of a float64 CSR
    v0 = np.asarray(v0, dtype=np.float64)
    dim = v0.size
    if ham.shape != (dim, dim) or v0.shape != (dim,):
        raise ValueError(f"need a square ham matching v0, got {ham.shape} and {v0.shape}")
    csr = (dim, dim, ham.indptr, ham.indices, ham.data)

    def matvec(x, out):
        # out = ham @ x through the kernel scipy's own product calls, into
        # zeros as it does, without its allocation and dispatch
        out.fill(0.0)
        csr_matvec(*csr, x, out)

    q, prev, w, tmp = v0 / math.sqrt((v0 * v0).sum()), np.zeros(dim), np.empty(dim), np.empty(dim)
    alphas, betas, norm_t = [], [0.0], 0.0
    while True:
        matvec(q, w)
        np.multiply(prev, betas[-1], out=tmp)
        w -= tmp
        np.multiply(q, w, out=tmp)
        alpha = float(tmp.sum())
        np.multiply(q, alpha, out=tmp)
        w -= tmp
        np.multiply(w, w, out=tmp)
        beta = math.sqrt(tmp.sum())
        norm_t = max(norm_t, abs(alpha) + betas[-1] + beta)
        alphas.append(alpha)
        betas.append(beta)
        steps = len(alphas)
        tol = _LANCZOS_TOL * norm_t
        # in exact arithmetic the Krylov space is complete at step dim
        check = steps % _LANCZOS_CHECK_EVERY == 0 or steps in (dim, _LANCZOS_MAX_STEPS)
        if check or not beta > tol:  # a NaN beta is checked too
            theta, y = eigh_tridiagonal(alphas, betas[1:-1], select="i", select_range=(0, 0))
            estimate = beta * abs(y[-1, 0])
            if estimate <= tol:
                break
            if steps >= _LANCZOS_MAX_STEPS:
                raise _NoConvergence(f"{steps} Lanczos steps left residual estimate {estimate:.3e}")
        np.divide(w, beta, out=prev)
        prev, q = q, prev
    q = v0 / math.sqrt((v0 * v0).sum())
    prev.fill(0.0)
    vec = np.zeros(dim)
    for step, coeff in enumerate(y[:, 0]):
        if step:
            matvec(q, w)
            np.multiply(prev, betas[step - 1], out=tmp)
            w -= tmp
            np.multiply(q, alphas[step - 1], out=tmp)
            w -= tmp
            np.divide(w, betas[step], out=prev)
            prev, q = q, prev
        np.multiply(q, coeff, out=tmp)
        vec += tmp
    return theta, (vec / math.sqrt((vec * vec).sum()))[:, None]


def build_hamiltonian(basis: SymmetricBasis, params: LmgParams) -> sp.csr_matrix:
    """Sparse real symmetric H on the given basis (D = 3 only)."""
    if basis.n_levels != 3:
        raise ValueError("Hamiltonian requires a three-level basis")
    if basis.n_particles != params.n_particles:
        raise ValueError("basis and params disagree on n_particles")
    return _hamiltonian(params, "full").copy()  # its own index arrays, not the cached ones


def parity_sector_indices(basis: SymmetricBasis, parities) -> np.ndarray:
    """Basis ranks whose occupations of levels 2..D have the given parities."""
    return basis.sector_rows(parities).ranks


def even_sector_indices(basis: SymmetricBasis) -> np.ndarray:
    return parity_sector_indices(basis, (0,) * (basis.n_levels - 1))


@lru_cache(maxsize=64)
def _sector_structure(n_particles: int, parities):
    """Occupation rows, ranks, splitting vector and coupling of one parity
    sector, from the sector's own moves: the full-space coupling sliced,
    never built.  Like _workspace it holds no basis."""
    sector = shared_basis(n_particles, 3).sector_rows(parities)
    if sector.ranks.size == 0:
        raise EmptySectorError(f"parity sector {parities} is empty")
    return (sector.rows, sector.ranks, *_assemble(sector.rows, sector.moves.values()))


def ground_state(params: LmgParams, sector="even") -> GroundStateResult:
    """Lowest eigenpair of H, restricted to a parity sector.

    sector: "even" (default, where the ground state lives), "full", or a
    pair of 0/1 parities for levels 2 and 3, for degeneracy studies.
    """
    n = params.n_particles
    basis = shared_basis(n, 3)
    if sector == "full":
        key, rows = "full", basis.full_rows
    else:
        parities = (0, 0) if sector == "even" else sector
        if not (isinstance(parities, (tuple, list)) and len(parities) == 2):
            raise ValueError(f"{_SECTOR_FORMS}, got {sector!r}")
        key = tuple(check_integer(p, 0, 1, f"{_SECTOR_FORMS}: parity") for p in parities)
        rows = basis.sector_rows(key)
    where = f"N={n}, lam={params.lam!r}, sector={sector!r}"
    ham = _hamiltonian(params, key)
    point = stationary_point(params)
    z0 = np.array([1.0, point.alpha0, point.beta0], dtype=np.complex128)
    v0 = _coherent_amplitudes(rows, z0).real
    if not v0.any():
        v0 = np.full(rows.ranks.size, 1.0 / math.sqrt(rows.ranks.size))
    try:
        eigvals, eigvecs = eigsh(
            ham, k=1, which="SA", v0=v0, rng=np.random.default_rng(_RESTART_SEED)
        )
    except _NoConvergence as exc:
        raise IntegrityError(f"eigensolver failed to converge at {where}: {exc}") from exc
    energy, vec = float(eigvals[0]), eigvecs[:, 0]
    misfit = ham @ vec - energy * vec
    residual = math.sqrt((misfit * misfit).sum())  # numpy's sum, not BLAS: see eigsh
    if not residual <= _RESIDUAL_TOL * (params.epsilon + params.lam):  # NaN fails
        raise IntegrityError(f"eigenpair residual {residual:.3e} at {where}")
    del ham, misfit  # freed before the full-space vectors below
    full = np.zeros(basis.dim, dtype=np.complex128)
    full[rows.ranks] = vec
    # deterministic sign: largest-magnitude coefficient made positive
    pivot = int(np.argmax(np.abs(full)))
    if full[pivot].real < 0:
        np.negative(full, out=full)
    state = SymmetricState(basis, _frozen(full))
    signature = np.array(
        [parity_expval(state, j) for j in range(1, basis.n_levels + 1)]
    )
    return GroundStateResult(energy=energy, state=state, parity_signature=signature)


def energy_surface(alpha, beta, params: LmgParams) -> float:
    """Mean-field energy over coherent states (1, alpha, beta), exact form."""
    a = complex(alpha)
    b = complex(beta)
    eps, lam = params.epsilon, params.lam
    s = (a * a.conjugate() + b * b.conjugate() + 1.0).real
    quad = (
        a * a * (b.conjugate() ** 2 + 1.0)
        + (b * b + 1.0) * a.conjugate() ** 2
        + b.conjugate() ** 2
        + b * b
    )
    return float(eps * ((b * b.conjugate()).real - 1.0) / s - lam * quad.real / s**2)


def stationary_point(params: LmgParams) -> StationaryPoint:
    """Piecewise closed-form minimizer; boundaries at lam = eps/2 and 3 eps/2."""
    eps, lam = params.epsilon, params.lam
    if lam <= eps / 2:
        return StationaryPoint(alpha0=0.0, beta0=0.0, phase="I")
    if lam <= 3 * eps / 2:
        alpha0 = math.sqrt((2 * lam - eps) / (2 * lam + eps))
        return StationaryPoint(alpha0=alpha0, beta0=0.0, phase="II")
    alpha0 = math.sqrt(2 * lam / (2 * lam + 3 * eps))
    beta0 = math.sqrt((2 * lam - 3 * eps) / (2 * lam + 3 * eps))
    return StationaryPoint(alpha0=alpha0, beta0=beta0, phase="III")


def thermo_energy(params: LmgParams):
    """Thermodynamic ground energy density, piecewise in the coupling.

    Pure scalar arithmetic: exact rational inputs (fractions.Fraction)
    come back exact.  lam = 0 takes the first branch, no division.
    """
    eps = params.epsilon
    lam = params.lam
    if lam <= eps / 2:
        return -eps
    if lam <= 3 * eps / 2:
        return -((2 * lam + eps) ** 2) / (8 * lam)
    return -(4 * lam**2 + 3 * eps**2) / (6 * lam)


def thermo_curvature(params: LmgParams, phase: str | None = None):
    """Analytic d^2 E_0 / d lam^2 of a branch (default: the branch at lam).

    Branch I is flat; II gives -eps^2/(4 lam^3); III gives -eps^2/lam^3.
    Evaluating adjacent branches at a boundary exposes the curvature
    jump of the second-order transitions.
    """
    eps = params.epsilon
    lam = params.lam
    if phase is None:
        phase = stationary_point(params).phase
    if phase == "I":
        return 0 * eps
    if phase == "II":
        return -(eps**2) / (4 * lam**3)
    if phase == "III":
        return -(eps**2) / lam**3
    raise ValueError(f"unknown phase {phase!r}")


def _tables_energy(S: np.ndarray, Q: np.ndarray, params: LmgParams) -> float:
    """<H> from a state's moment tables:
    eps/N (S_33 - S_11) - lam/(N(N-1)) sum_{i!=j} <S_ij^2>."""
    n = params.n_particles
    i, j = np.nonzero(~np.eye(3, dtype=bool))
    kin = params.epsilon / n * float((S[2, 2] - S[0, 0]).real)
    quad = float(Q[i, j, i, j].sum().real)
    return kin - params.lam / (n * (n - 1)) * quad


def variational_energy(state: SymmetricState, params: LmgParams) -> float:
    """Rayleigh quotient <psi|H|psi> for a normalized three-level state."""
    basis = state.basis
    if basis.n_levels != 3 or basis.n_particles != params.n_particles:
        raise ValueError("state sector does not match params")
    return _tables_energy(*expval_tables(state), params)


def variational_cat(basis: SymmetricBasis, params: LmgParams) -> SymmetricState:
    """Even cat state at the mean-field minimizer: the variational ground state."""
    point = stationary_point(params)
    return dcat(basis, [1.0, point.alpha0, point.beta0])
