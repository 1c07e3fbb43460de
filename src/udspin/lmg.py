"""Three-level all-to-all interacting atom model and its phase diagram.

The Hamiltonian, in intensive normalization,

    H = (eps/N) (S_33 - S_11) - (lam/(N(N-1))) sum_{i != j} S_ij^2

couples every pair of atoms symmetrically, so it acts within the
symmetric sector and commutes with every level parity Pi_j.  The ground
state lies in the fully even sector (n_2, n_3 both even);
diagonalization restricts there by default, which also picks a
deterministic representative among the near-degenerate finite-N levels
of the broken phases.  A parity sector is assembled from its own S_ij^2
moves; the full-space coupling is built only for sector "full" and
build_hamiltonian.  Each sector keeps the CSR pattern of H as scipy's
sparse subtraction lays it out; every coupling writes its entries into a
fresh data array on it, bit for bit what scipy's arithmetic gives.
Every sector, full space and the single-state sector at N = 3 included,
goes through one solver: Lanczos (eigsh here, lowest eigenvalue) without
reorthogonalization, updating preallocated vectors in place and
replaying, bit for bit, those that do not fit its 2 MiB block.
Convergence checks call LAPACK's tridiagonal bisection and inverse
iteration directly.  Lanczos starts from the coherent state at the
mean-field minimizer on the sector's rows -- the variational cat on the
even sector -- or from the uniform vector where that restriction
vanishes.  It draws no random vector and sums with numpy rather than
BLAS, so a row depends only on (N, lam, eps), not on grid order, workers
or BLAS threads.  Importing the module loads no scipy: the functions
that assemble H or solve import scipy.sparse, and the kernels eigsh
calls (scipy's CSR product csr_matvec, LAPACK's dstebz and dstein) are
bound as module attributes on first use and read through the module, so
a replacement bound there is what runs.  A solve that does not converge
within a fixed step cap, or whose pair misses ||Hv - Ev|| <= 1e-10
(eps + lam), raises IntegrityError naming N, lam and the sector; one whose
start or H is not finite, or whose tridiagonal gives a NaN residual
estimate, raises ValueError naming them.

Closed forms implemented alongside the numerics: the mean-field energy
surface over coherent states (1, alpha, beta), its stationary points,
and the thermodynamic ground energy, a piecewise function of the
coupling with second-order transitions at lam = eps/2 and 3 eps/2.
thermo_energy keeps pure-Python arithmetic so exact Fraction inputs
propagate through the branch formulas; the Hamiltonian takes them as floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError

from .basis import SymmetricBasis, SymmetricState, _frozen, _moves, expval_tables, shared_basis
from .errors import EmptySectorError, IntegrityError, check_integer, check_ranges
from .states import _binary_scaled, _coherent_amplitudes, dcat

if TYPE_CHECKING:
    import scipy.sparse as sp

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
# step dim.  At N = 50 a check takes 3 us at 10 steps and 17 us at 60,
# one step 6 us (timeit); the value also fixes where solves stop, so
# changing it moves bits
_LANCZOS_CHECK_EVERY = 10

# a solve that has not converged in this many steps fails; first passes
# measured at N <= 2000 took at most 261
_LANCZOS_MAX_STEPS = 2000

# eigsh keeps as many Lanczos vectors as fit in this many float64s (2 MiB)
# and replays the rest from the last two kept
_KRYLOV_STORE_FLOATS = 2**18

_SECTOR_FORMS = "sector must be 'even', 'full' or a pair of 0/1 parities for levels 2 and 3"


def __getattr__(name):
    """Bind a kernel of eigsh (csr_matvec, dstebz, dstein) as a module
    attribute on its first read (PEP 562).  A bare global name skips this
    hook, so eigsh and _lowest_ritz read the kernels through _MODULE."""
    if name == "csr_matvec":
        from scipy.sparse._sparsetools import csr_matvec as kernel
    elif name in ("dstebz", "dstein"):
        from scipy.linalg import lapack

        kernel = getattr(lapack, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = kernel
    return kernel


_MODULE = sys.modules[__name__]


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
    import scipy.sparse as sp

    coupling = sp.csr_matrix((occupations.shape[0],) * 2)
    for src, dst, amp in moves:
        coupling = coupling + sp.csr_matrix((amp, (dst, src)), shape=coupling.shape)
    return (occupations[:, 2] - occupations[:, 0]).astype(np.float64), coupling


def _workspace(n_particles: int):
    """Occupation table, splitting vector and full-space coupling; only the
    pattern of sector "full" reads it.  It holds the table, not the basis."""
    occ = shared_basis(n_particles, 3).occupations
    moves = (_moves(occ, i0, j0, 2) for i0, j0 in permutations(range(3), 2))
    return (occ, *_assemble(occ, moves))


@lru_cache(maxsize=64)
def _pattern(n_particles: int, sector):
    """CSR pattern of H on a sector (a parity pair, or "full"), as scipy
    lays out sp.diags(diag != 0) - coupling, whose positive entries are the
    diagonal ones (coupling entries are > 0).  Returns the read-only
    (indptr, indices, on_diag, has_diag) that every H of the sector shares,
    the splitting vector and the coupling's values: the one cache per sector."""
    import scipy.sparse as sp

    if sector == "full":
        _, diag, coupling = _workspace(n_particles)
    else:
        _, _, diag, coupling = _sector_structure(n_particles, sector)
    has_diag = diag != 0
    probe = sp.diags(has_diag * 1.0) - coupling
    return (
        _frozen(probe.indptr),
        _frozen(probe.indices),
        _frozen(probe.data > 0),
        _frozen(has_diag),
        diag,
        coupling.data,
    )


def _hamiltonian(params: LmgParams, sector) -> sp.csr_matrix:
    """H = eps/N diag - lam/(N(N-1)) coupling on a sector, in floats
    (scipy.sparse has no dtype for exact Fraction couplings): a fresh data
    array on the sector's shared pattern, with the entries and bits of
    sp.diags(eps/N diag) - s coupling.  That subtraction stores no zero,
    so zero entries (every off-diagonal one at lam = 0) go, as scipy drops them."""
    import scipy.sparse as sp

    n = params.n_particles
    indptr, indices, on_diag, has_diag, diag, couplings = _pattern(n, sector)
    data = np.empty(indices.size)
    data[on_diag] = float(params.epsilon) / n * diag[has_diag]
    data[~on_diag] = couplings * (-float(params.lam) / (n * (n - 1)))  # -(s C), bit for bit
    has_zero = not data.all()
    ham = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2, copy=has_zero)
    if has_zero:
        ham.eliminate_zeros()
    return ham


def _lowest_ritz(alphas, off):
    """Lowest eigenpair (theta (1,), y (m, 1)) of the tridiagonal with
    diagonal alphas and off-diagonal off, by the dstebz and dstein calls
    eigh_tridiagonal(select="i", select_range=(0, 0)) makes, bit for bit,
    without its checks: eigsh has checked the coefficients are finite.
    f2py wants one off-diagonal entry for a 1x1, which LAPACK never reads."""
    m, w, iblock, isplit, info = _MODULE.dstebz(alphas, off, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if not info:
        y, info = _MODULE.dstein(alphas, off, w[:m], iblock, isplit)
    if info:
        raise LinAlgError(f"LAPACK tridiagonal eigensolver failed (info={info})")
    return w[:m], y


def eigsh(ham, *, k=1, which="SA", v0):
    """Lowest eigenpair of the real symmetric `ham` by Lanczos, in scipy's
    eigsh shape: eigenvalues (1,) and eigenvectors (dim, 1).

    The three-term recurrence runs without reorthogonalization, with
    in-place updates and numpy's pairwise sums rather than BLAS ddot, whose
    threaded split reorders them with the BLAS thread count.  It keeps
    alpha_k = q_k.H q_k and beta_k, and every _LANCZOS_CHECK_EVERY steps
    takes the lowest pair (theta, y) of the tridiagonal T; it stops once
    |beta_m y_m| <= _LANCZOS_TOL ||T||, with ||T|| bounded by Gershgorin.
    A vanishing beta (the start spans an invariant subspace, as the cat
    start |N,0,0> at lam = 0 or a one-state sector) gives an exact Ritz
    pair.  The Ritz vector sums the Lanczos vectors kept in a block of
    _KRYLOV_STORE_FLOATS (2 MiB), as many as fit; a vector past it is
    rebuilt from the two before it by the first pass's own step routine,
    given the stored alpha and beta, so it is the same bit for bit.  On
    the default grid nothing is replayed up to N = 100 (sector dim 1326,
    at most 90 steps); N = 200 keeps 50 vectors of 90 at the median,
    N = 400 12 of 120.  Orthogonality is lost
    only as Ritz values converge (Paige 1972), so the lowest pair stays
    reliable without reorthogonalization.

    `ham` is taken as a float64 CSR matrix (one already is used as it is)
    and must match v0, since the product kernel checks no bounds.  A zero
    or non-finite v0, a NaN or infinite alpha or beta (from a non-finite
    ham), or a NaN residual estimate (LAPACK's tridiagonal solve overflows
    on entries past about 1e154) raises ValueError; LAPACK failing on the
    tridiagonal raises LinAlgError.  A solve still short of convergence
    after _LANCZOS_MAX_STEPS steps raises IntegrityError.

    The kernels are bound on first use (see __getattr__) and read through
    the module, csr_matvec once per call and dstebz/dstein at each check,
    so a kernel replaced there is the one that runs.
    """
    import scipy.sparse as sp

    if k != 1 or which != "SA":
        raise ValueError("only the lowest eigenpair (k=1, which='SA') is computed")
    ham = sp.csr_matrix(ham, dtype=np.float64)  # no copy of a float64 CSR
    v0 = np.asarray(v0, dtype=np.float64)
    dim = v0.size
    if ham.shape != (dim, dim) or v0.shape != (dim,):
        raise ValueError(f"need a square ham matching v0, got {ham.shape} and {v0.shape}")
    norm = math.sqrt(np.add.reduce(v0 * v0))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"v0 must be finite and nonzero, got norm {norm!r}")
    csr = (dim, dim, ham.indptr, ham.indices, ham.data)
    csr_matvec = _MODULE.csr_matvec  # what is bound there now, once per call
    cap = max(2, min(_LANCZOS_MAX_STEPS, _KRYLOV_STORE_FLOATS // dim))
    store, spare = np.empty((cap, dim)), np.empty((2, dim))

    def lanczos_vector(step):
        # q_step: stored while it fits, else one of two rotating vectors
        return store[step] if step < cap else spare[step % 2]

    w, tmp = np.empty(dim), np.empty(dim)
    alphas, betas = np.empty(_LANCZOS_MAX_STEPS), np.zeros(_LANCZOS_MAX_STEPS + 1)

    def lanczos_step(k, alpha=None):
        # w = H q_k - beta_k q_{k-1} - alpha_k q_k; the replay passes alpha_k.
        # H q_k goes through the kernel scipy's own product calls, into
        # zeros as it does, without its allocation and dispatch
        q = lanczos_vector(k)
        w.fill(0.0)
        csr_matvec(*csr, q, w)
        if k:  # q_{-1} = 0 would subtract +0.0, which changes no bit
            np.multiply(lanczos_vector(k - 1), betas[k], out=tmp)
            np.subtract(w, tmp, out=w)
        if alpha is None:
            np.multiply(q, w, out=tmp)
            alpha = float(np.add.reduce(tmp))
        np.multiply(q, alpha, out=tmp)
        np.subtract(w, tmp, out=w)
        return alpha

    np.divide(v0, norm, out=store[0])
    steps, beta, norm_t = 0, 0.0, 0.0
    while True:
        alpha = lanczos_step(steps)
        np.multiply(w, w, out=tmp)
        beta_next = math.sqrt(np.add.reduce(tmp))
        if not (math.isfinite(alpha) and math.isfinite(beta_next)):
            raise ValueError(
                f"Lanczos step {steps + 1} gave alpha {alpha!r}, beta {beta_next!r}: ham is not finite"
            )
        norm_t = max(norm_t, abs(alpha) + beta + beta_next)
        alphas[steps], betas[steps + 1] = alpha, beta_next
        steps, beta = steps + 1, beta_next
        tol = _LANCZOS_TOL * norm_t
        # in exact arithmetic the Krylov space is complete at step dim
        check = steps % _LANCZOS_CHECK_EVERY == 0 or steps in (dim, _LANCZOS_MAX_STEPS)
        if check or not beta > tol:
            theta, y = _lowest_ritz(alphas[:steps], betas[1 : max(steps, 2)])
            estimate = beta * abs(y[-1, 0])
            if estimate <= tol:
                break
            if math.isnan(estimate):  # LAPACK's tridiagonal solve overflowed
                raise ValueError(f"Lanczos step {steps}: residual estimate nan, ham too large")
            if steps >= _LANCZOS_MAX_STEPS:
                raise IntegrityError(
                    f"{steps} Lanczos steps failed to converge, residual estimate {estimate:.3e}"
                )
        np.divide(w, beta, out=lanczos_vector(steps))
    vec = np.zeros(dim)
    for step, coeff in enumerate(y[:, 0]):
        q = lanczos_vector(step)
        if step >= cap:  # past the store: replay the step that made q
            lanczos_step(step - 1, alphas[step - 1])
            np.divide(w, betas[step], out=q)
        np.multiply(q, coeff, out=tmp)
        vec += tmp
    np.multiply(vec, vec, out=tmp)
    vec /= math.sqrt(np.add.reduce(tmp))
    return theta, vec[:, None]


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
        eigvals, eigvecs = eigsh(ham, k=1, which="SA", v0=v0)
    except (IntegrityError, ValueError) as exc:  # no convergence, values out of range, LAPACK
        raise type(exc)(f"eigensolver failed at {where}: {exc}") from exc
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
    # <Pi_j> = sum over the solved rows of (-1)^(n_j) |c|^2
    weights = vec * vec
    odd = (rows.rows % 2 == 1).T
    signature = np.array([np.add.reduce(np.where(o, -weights, weights)) for o in odd])
    state = SymmetricState(basis, _frozen(full))
    return GroundStateResult(energy=energy, state=state, parity_signature=signature)


def energy_surface(alpha, beta, params: LmgParams):
    """Mean-field energy over coherent states (1, alpha, beta), exact form;
    arrays broadcast, as in a ufunc.  The orbital is first
    scaled by a power of two, c in place of 1, so no square overflows and,
    the form being of degree 0, no bit changes."""
    z = np.stack(np.broadcast_arrays(1.0, alpha, beta), axis=-1).astype(np.complex128)
    c, a, b = np.moveaxis(_binary_scaled(z), -1, 0)
    cc, bb, eps, lam = c * c, b.conj() * b.conj(), params.epsilon, params.lam
    s = (a * a.conj() + b * b.conj() + cc).real
    quad = a * a * (bb + cc) + (b * b + cc) * (a.conj() * a.conj()) + cc * bb + b * b * cc
    energy = eps * ((b * b.conj()).real - cc.real) / s - lam * quad.real / (s * s)
    return check_ranges(energy, None, "mean-field energy")


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


def _tables_energy(S: np.ndarray, Q: np.ndarray, n: int, epsilon: float, lam):
    """<H> from a state's moment tables, or from stacks of them with lam
    holding each table's coupling:
    eps/N (S_33 - S_11) - lam/(N(N-1)) sum_{i!=j} <S_ij^2>."""
    i, j = np.nonzero(~np.eye(3, dtype=bool))
    kin = epsilon / n * (S[..., 2, 2] - S[..., 0, 0]).real
    quad = np.ascontiguousarray(Q[..., i, j, i, j]).sum(axis=-1).real  # pairwise, per table
    return kin - lam / (n * (n - 1)) * quad


def variational_energy(state: SymmetricState, params: LmgParams) -> float:
    """Rayleigh quotient <psi|H|psi> for a normalized three-level state."""
    basis = state.basis
    if basis.n_levels != 3 or basis.n_particles != params.n_particles:
        raise ValueError("state sector does not match params")
    S, Q = expval_tables(state)
    return float(_tables_energy(S, Q, params.n_particles, params.epsilon, params.lam))


def variational_cat(basis: SymmetricBasis, params: LmgParams) -> SymmetricState:
    """Even cat state at the mean-field minimizer: the variational ground state."""
    point = stationary_point(params)
    return dcat(basis, [1.0, point.alpha0, point.beta0])
