"""Three-level all-to-all interacting atom model and its phase diagram.

The Hamiltonian, in intensive normalization,

    H = (eps/N) (S_33 - S_11) - (lam/(N(N-1))) sum_{i != j} S_ij^2

couples every pair of atoms symmetrically, so it acts within the
symmetric sector and commutes with every level parity Pi_j.  The ground
state lies in the fully even sector (n_2, n_3 both even);
diagonalization restricts there by default, which also picks a
deterministic representative among the near-degenerate finite-N levels
of the broken phases.  A parity sector is assembled from its own S_ij^2
moves, one table per level pair read both ways (basis.RowSet.moves); the
full-space pattern is built from all six tables, only for sector "full"
and build_hamiltonian.  Each sector keeps the CSR pattern of H, laid out
with numpy as scipy's sparse subtraction lays it out; every coupling
writes its entries into a fresh data array on it, bit for bit what scipy's
arithmetic gives, and the solver holds H as those three arrays (_Csr).
Every sector, full space and the single-state sector at N = 3 included,
goes through one solver, eigsh: Lanczos without reorthogonalization for the
lowest pair, of one H or of a stack of them, as a sweep block solves its
couplings in one pass.  Lanczos starts from the coherent state at the
mean-field minimizer on the sector's rows -- the variational cat on the
even sector -- or from the uniform vector where that restriction
vanishes.  It draws no random vector and sums with numpy rather than
BLAS, so a row depends only on (N, lam, eps), not on grid order, stacks,
workers or BLAS threads.  Importing the module loads no scipy, and a
solve loads no scipy package: the kernels eigsh calls are bound on first
use from scipy's extension files (see __getattr__), and scipy.sparse is
imported only to take or give scipy's matrices.  A solve that does
not converge within a fixed step cap, or whose pair misses ||Hv - Ev|| <=
1e-10 (eps + lam), raises IntegrityError naming N, lam and the sector; one
whose start or H is not finite, or whose tridiagonal gives a NaN residual
estimate, raises ValueError naming them (in a stack, the sector only).

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
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .basis import SymmetricBasis, SymmetricState, _frozen, _moves, expval_tables, shared_basis
from .basis import _scipy_extension
from .errors import IntegrityError, _only, check_integer, check_ranges
from .states import _binary_scaled, _coherent_amplitudes, _dcats

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

# eigsh keeps as many steps of Lanczos vectors (a vector per matrix of its
# stack) as fit in this many float64s (2 MiB), and replays the rest
_KRYLOV_STORE_FLOATS = 2**18

_SECTOR_FORMS = "sector must be 'even', 'full' or a pair of 0/1 parities for levels 2 and 3"


def __getattr__(name):
    """Bind a kernel of eigsh (csr_matvec, dstebz, dstein) as a module
    attribute on its first read (PEP 562), from scipy's extension module
    loaded by file (basis._scipy_extension), so a sweep imports no scipy
    package.  A bare global name skips this hook, so eigsh and _lowest_ritz
    read the kernels through _MODULE."""
    if name == "csr_matvec":
        module = "scipy.sparse._sparsetools"
    elif name in ("dstebz", "dstein"):
        module = "scipy.linalg._flapack"
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    kernel = globals()[name] = getattr(_scipy_extension(module), name)
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
    at a time by scipy's sparse arithmetic: the oracle, off the solve path,
    that the tests compare _pattern and _hamiltonian against."""
    import scipy.sparse as sp

    coupling = sp.csr_matrix((occupations.shape[0],) * 2)
    for src, dst, amp in moves:
        coupling = coupling + sp.csr_matrix((amp, (dst, src)), shape=coupling.shape)
    return (occupations[:, 2] - occupations[:, 0]).astype(np.float64), coupling


def _workspace(n_particles: int):
    """Occupation table, splitting vector and full-space coupling, built
    by _assemble (an oracle).  It holds the table, not the basis."""
    occ = shared_basis(n_particles, 3).occupations
    moves = (_moves(occ, i0, j0, 2) for i0, j0 in permutations(range(3), 2))
    return (occ, *_assemble(occ, moves))


@lru_cache(maxsize=64)
def _pattern(n_particles: int, sector):
    """CSR pattern of H on a sector (a parity pair, or "full"), as scipy
    lays out sp.diags(diag != 0) - coupling: per row its diagonal entry
    where n_3 != n_1 and the S_ij^2 moves into it, in column order.  Rows
    are in descending lexicographic order, so row r's entries, from r +
    2(e_j - e_i) by move (i, j) and from r itself, fall in the same order in
    every row, that of their displacements: the rows are laid out one slot at
    a time, with no sort.  Moves of different level pairs never share an
    entry.  Returns the read-only (indptr, indices, on_diag, has_diag) that
    every H of the sector shares, the splitting vector and the coupling's
    values in pattern order: the one cache per sector."""
    basis = shared_basis(n_particles, 3)
    rows = basis.full_rows if sector == "full" else basis.sector_rows(sector)
    diag = (rows.rows[:, 2] - rows.rows[:, 0]).astype(np.float64)
    has_diag, moves = diag != 0, rows.moves
    slots = ((2, 0), (1, 0), (2, 1), None, (1, 2), (0, 1), (0, 2))  # None: the diagonal
    counts = has_diag.astype(np.int32)
    for _, dst, _ in moves.values():
        counts[dst] += 1  # a row is the target of one move per level pair at most
    indptr = np.zeros(diag.size + 1, dtype=np.int32)  # scipy's index dtype at these sizes
    np.cumsum(counts, out=indptr[1:])
    indices, on_diag = np.empty(indptr[-1], dtype=np.int32), np.zeros(indptr[-1], dtype=bool)
    couplings = np.empty(indptr[-1] - np.count_nonzero(has_diag))
    fill = indptr[:-1].copy()  # per row, where its next entry goes, among all and off the diagonal
    off_fill = fill - (np.cumsum(has_diag, dtype=np.int32) - has_diag)
    for key in slots:
        if key is None:
            (dst,) = src = np.nonzero(has_diag)
            on_diag[fill[dst]] = True
        else:
            src, dst, amp = moves[key]
            couplings[off_fill[dst]] = amp
            off_fill[dst] += 1
        indices[fill[dst]] = src
        fill[dst] += 1
    return tuple(map(_frozen, (indptr, indices, on_diag, has_diag, diag, couplings)))


class _Csr(NamedTuple):
    """A square float64 CSR matrix as its three arrays: H on the solve path,
    with no scipy.sparse.  `@` calls csr_matvec from its module into zeros,
    as scipy's product does (not eigsh's kernel bound here), with its bits."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.indptr.size - 1,) * 2

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, vec):
        vec = np.asarray(vec)
        if vec.shape != self.shape[1:]:  # the kernel checks no bounds
            raise ValueError(f"need a vector of length {self.shape[1]}, got shape {vec.shape}")
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, vec))
        _scipy_extension("scipy.sparse._sparsetools").csr_matvec(*self.shape, *self, vec, out)
        return out


def _hamiltonian(params: LmgParams, sector):
    """H = eps/N diag - lam/(N(N-1)) coupling on a sector, in floats
    (scipy.sparse has no dtype for exact Fraction couplings): a fresh data
    array on the sector's shared pattern, with the entries and bits of
    sp.diags(eps/N diag) - s coupling.  That subtraction stores no zero,
    so zero entries (every off-diagonal one at lam = 0) go, from copies of
    the index arrays, as scipy's eliminate_zeros drops them.  H is a _Csr,
    or, once scipy.sparse is loaded anyway, scipy's csr_matrix on the same
    arrays, the type tests compare; eigsh and `@` give both the same bits."""
    n = params.n_particles
    indptr, indices, on_diag, has_diag, diag, couplings = _pattern(n, sector)
    data = np.empty(indices.size)
    data[on_diag] = float(params.epsilon) / n * diag[has_diag]
    data[~on_diag] = couplings * (-float(params.lam) / (n * (n - 1)))  # -(s C), bit for bit
    ham = _Csr(indptr, indices, data)
    if not data.all():
        ham = _Csr(indptr.copy(), indices.copy(), data)
        _scipy_extension("scipy.sparse._sparsetools").csr_eliminate_zeros(*ham.shape, *ham)
        ham = _Csr(ham.indptr, ham.indices[: ham.nnz], data[: ham.nnz])
    if "scipy.sparse" not in sys.modules:  # a cold sweep loads no scipy package
        return ham
    import scipy.sparse as sp

    return sp.csr_matrix((ham.data, ham.indices, ham.indptr), shape=ham.shape, copy=False)


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


@np.errstate(over="ignore")  # once per call: an overflowing beta is inf, and its row fails
def eigsh(ham, *, k=1, which="SA", v0):
    """Lowest eigenpair of the real symmetric `ham` by Lanczos, in scipy's
    eigsh shape: eigenvalues (1,) and eigenvectors (dim, 1).  Given a list
    of B matrices of one dimension and v0 of shape (B, dim), it solves them
    as one stack and returns a list: each matrix's pair, or the error its
    one-matrix call raises.  A one-matrix call is the stack of one.

    The three-term recurrence runs without reorthogonalization, with
    in-place updates and numpy's pairwise sums rather than BLAS ddot, whose
    threaded split reorders them with the BLAS thread count.  Every
    _LANCZOS_CHECK_EVERY steps it takes the lowest pair (theta, y) of the
    tridiagonal T of its alphas and betas, and it stops once |beta_m y_m| <=
    _LANCZOS_TOL ||T||, ||T|| bounded by Gershgorin; a vanishing beta (the
    start spans an invariant subspace, as the cat start |N,0,0> at lam = 0
    does) gives an exact pair.  Orthogonality is lost only as Ritz values
    converge (Paige 1972), so the lowest pair stays reliable.  A stack runs
    its recurrences side by side: per step one product with its
    block-diagonal matrix, and one numpy call per vector update and per
    row-wise sum, which sums each row as a 1-D vector is summed.  A row
    keeps its own checks and stopping step, and once stopped, converged or
    failed, stays in the stack as a zero row.  The Ritz vectors sum the
    Lanczos vectors kept in a block of _KRYLOV_STORE_FLOATS (2 MiB), as many
    steps of the stack as fit (no default sweep up to N = 100 needs more); a
    step past it is rebuilt from the two before it by the first pass's own
    step routine.  So each pair has the bytes of its one-matrix call.

    `ham` is a _Csr, or a scipy or dense matrix taken as float64 CSR through
    scipy.sparse (one already is used as it is), and must match v0, since
    the product kernel checks no bounds.  A zero or
    non-finite v0, a NaN or infinite alpha or beta (from a non-finite ham,
    or a residual whose square is past the float range) or a NaN residual
    estimate (LAPACK's tridiagonal solve overflows on entries past about
    1e154) is a ValueError, LAPACK failing on the tridiagonal a LinAlgError,
    and a solve still short of convergence after _LANCZOS_MAX_STEPS steps an
    IntegrityError.  The kernels csr_matvec (once per call) and dstebz/dstein
    (at each check) are read through the module.
    """
    if k != 1 or which != "SA":
        raise ValueError("only the lowest eigenpair (k=1, which='SA') is computed")
    stacked = isinstance(ham, list)
    hams = [h if isinstance(h, _Csr) else _float_csr(h) for h in (ham if stacked else [ham])]
    v0 = np.asarray(v0, dtype=np.float64)
    starts = v0 if stacked else v0[None]
    rows, dim = len(hams), starts.shape[-1]
    if starts.shape != (rows, dim) or any(h.shape != (dim, dim) for h in hams):
        shapes = [h.shape for h in hams]
        raise ValueError(f"need a square ham matching v0, got {shapes} and {v0.shape}")
    if rows == 1:
        csr = (dim, dim, *hams[0])
    else:  # one block-diagonal matrix, whose row block r is H_r
        nnz = np.cumsum([0] + [h.nnz for h in hams])
        indices = np.concatenate([h.indices + r * dim for r, h in enumerate(hams)])
        indptr = np.concatenate([h.indptr[:-1] + n for h, n in zip(hams, nnz)] + [nnz[-1:]])
        data = np.concatenate([h.data for h in hams])
        csr = (rows * dim, rows * dim, indptr.astype(indices.dtype), indices, data)
    csr_matvec = _MODULE.csr_matvec  # what is bound there now, once per call
    cap = max(2, min(_LANCZOS_MAX_STEPS, _KRYLOV_STORE_FLOATS // (rows * dim)))
    # a vector holds a row per matrix, and a coefficient (alpha_k, beta_k or
    # y_k) is a column that scales them; one matrix keeps 1-D vectors and
    # scalar coefficients, as numpy runs those with least overhead
    wide = rows > 1
    shape, column = ((rows, dim), (rows, 1)) if wide else ((dim,), ())
    starts, stops, outcomes = starts.reshape(shape), [math.inf] * rows, [None] * rows
    norms = np.sqrt(np.add.reduce(starts * starts, axis=-1, keepdims=True))
    for r, norm in enumerate(norms.reshape(rows).tolist()):
        if not 0.0 < norm < math.inf:  # refused: its row is zero from q_0 on
            outcomes[r] = ValueError(f"v0 must be finite and nonzero, got norm {norm!r}")
            stops[r], norms.reshape(rows)[r] = 0, 1.0
    store, spare = np.empty((cap, *shape)), np.empty((2, *shape))
    w, tmp = np.empty(shape), np.empty(shape)
    # 80 steps to start with: the solves of the default N = 50 sweep take at most 70
    alphas, betas, ys = np.zeros((3, 8 * _LANCZOS_CHECK_EVERY, *column))
    alpha_rows, beta_rows, y_rows = (c.reshape(-1, rows) for c in (alphas, betas, ys))

    def lanczos_vector(step):
        # q_step: stored while it fits, else one of two rotating vectors
        return store[step] if step < cap else spare[step % 2]

    def lanczos_step(k, replay=False):
        # w = H q_k - beta_k q_{k-1} - alpha_k q_k; the replay reads alpha_k.
        # H q_k goes through the kernel scipy's own product calls, into
        # zeros as it does, without its allocation and dispatch
        q = lanczos_vector(k)
        w.fill(0.0)
        csr_matvec(*csr, q, w)
        if k:  # q_{-1} = 0 would subtract +0.0, which changes no bit
            np.multiply(lanczos_vector(k - 1), betas[k], out=tmp)
            np.subtract(w, tmp, out=w)
        if not replay:
            np.multiply(q, w, out=tmp)
            alphas[k] = np.add.reduce(tmp, axis=-1, keepdims=wide)  # each row's pairwise sum
        np.multiply(q, alphas[k], out=tmp)
        np.subtract(w, tmp, out=w)

    def clear_stopped(step, x):
        # a row that has stopped by q_step is zero from q_step on: its row of
        # x, which q_step is made from, is cleared and its beta set to 1
        stopped = [r for r in range(rows) if stops[r] <= step]
        if stopped:
            x.reshape(rows, dim)[stopped], beta_rows[step, stopped] = 0.0, 1.0

    np.divide(starts, norms, out=store[0])
    clear_stopped(0, store[0])
    steps, live = 0, [r for r in range(rows) if stops[r]]
    norm_t, beta_prev = [0.0] * rows, [0.0] * rows
    while live:
        if steps + 2 > len(alphas):  # the coefficients double as the steps go
            grown = np.array([alphas, betas, ys])
            alphas, betas, ys = np.concatenate([grown, np.zeros_like(grown)], axis=1)
            alpha_rows, beta_rows, y_rows = (c.reshape(-1, rows) for c in (alphas, betas, ys))
        lanczos_step(steps)
        np.multiply(w, w, out=tmp)
        betas[steps + 1] = np.sqrt(np.add.reduce(tmp, axis=-1, keepdims=wide))
        steps += 1
        # in exact arithmetic the Krylov space is complete at step dim
        check = steps % _LANCZOS_CHECK_EVERY == 0 or steps in (dim, _LANCZOS_MAX_STEPS)
        step_alphas, step_betas = alpha_rows[steps - 1].tolist(), beta_rows[steps].tolist()
        for r in live:
            alpha, beta = step_alphas[r], step_betas[r]
            if not (math.isfinite(alpha) and math.isfinite(beta)):
                alpha_rows[steps - 1, r] = 0.0  # so a replay of the step multiplies no infinity
                outcomes[r] = ValueError(
                    f"Lanczos step {steps} gave alpha {alpha!r}, beta {beta!r}: ham is not finite"
                )
            else:
                norm_t[r] = max(norm_t[r], abs(alpha) + beta_prev[r] + beta)
                beta_prev[r], tol = beta, _LANCZOS_TOL * norm_t[r]
                if check or not beta > tol:  # a converged row's y goes to y_rows
                    tridiagonal = alpha_rows[:steps, r], beta_rows[1 : max(steps, 2), r]
                    outcomes[r] = _ritz_check(*tridiagonal, beta, tol, y_rows[:steps, r])
            if outcomes[r] is not None:
                stops[r] = steps
        live = [r for r in live if outcomes[r] is None]
        if live:
            if len(live) < rows:
                clear_stopped(steps, w)
            np.divide(w, betas[steps], out=lanczos_vector(steps))
    vec = np.zeros(shape)  # only now: allocated earlier, it lifted the peak RSS at N = 400
    for step in range(max(stops)):
        q = lanczos_vector(step)
        if step >= cap:  # past the store: replay the step that made q
            lanczos_step(step - 1, replay=True)
            if step >= min(stops):
                clear_stopped(step, w)
            np.divide(w, betas[step], out=q)
        np.multiply(q, ys[step], out=tmp)
        vec += tmp
    np.multiply(vec, vec, out=tmp)
    norms = np.sqrt(np.add.reduce(tmp, axis=-1, keepdims=True))
    failed = [r for r, outcome in enumerate(outcomes) if isinstance(outcome, Exception)]
    norms.reshape(rows)[failed] = 1.0  # their rows of vec are zero
    vec /= norms
    for r, v in enumerate(vec.reshape(rows, dim)):
        outcomes[r] = outcomes[r] if r in failed else (outcomes[r], v[:, None])
    return outcomes if stacked else _only(outcomes)


def _float_csr(matrix) -> _Csr:
    """A scipy sparse or dense matrix as a float64 _Csr, on the arrays of
    its CSR form: not copied where it is one already."""
    import scipy.sparse as sp

    matrix = sp.csr_matrix(matrix, dtype=np.float64)
    return _Csr(matrix.indptr, matrix.indices, matrix.data)


def _ritz_check(alphas, off, beta, tol, y_out):
    """The convergence check at step m = alphas.size: the lowest Ritz value
    of the tridiagonal (alphas, off), its vector y written to y_out, once
    |beta y_m| <= tol; the error that ends the solve; or None to go on."""
    try:
        theta, y = _lowest_ritz(alphas, off)
    except LinAlgError as exc:
        return exc
    estimate, steps = beta * abs(y[-1, 0]), alphas.size
    if estimate <= tol:
        y_out[:] = y[:, 0]
        return theta
    if math.isnan(estimate):  # LAPACK's tridiagonal solve overflowed
        return ValueError(f"Lanczos step {steps}: residual estimate nan, ham too large")
    if steps >= _LANCZOS_MAX_STEPS:
        return IntegrityError(
            f"{steps} Lanczos steps failed to converge, residual estimate {estimate:.3e}"
        )
    return None


def build_hamiltonian(basis: SymmetricBasis, params: LmgParams) -> sp.csr_matrix:
    """Sparse real symmetric H on the given basis (D = 3 only)."""
    if basis.n_levels != 3:
        raise ValueError("Hamiltonian requires a three-level basis")
    if basis.n_particles != params.n_particles:
        raise ValueError("basis and params disagree on n_particles")
    import scipy.sparse as sp

    ham = _hamiltonian(params, "full")  # its own arrays, not the cached ones
    return sp.csr_matrix((ham.data, ham.indices, ham.indptr), shape=ham.shape, copy=True)


def parity_sector_indices(basis: SymmetricBasis, parities) -> np.ndarray:
    """Basis ranks whose occupations of levels 2..D have the given parities."""
    return basis.sector_rows(parities).ranks


def even_sector_indices(basis: SymmetricBasis) -> np.ndarray:
    return parity_sector_indices(basis, (0,) * (basis.n_levels - 1))


def _sector_structure(n_particles: int, parities):
    """Occupation rows, ranks, splitting vector and coupling of one parity
    sector, from its own rows and moves by _assemble (an oracle), no full
    table; holds no basis."""
    sector = shared_basis(n_particles, 3).sector_rows(parities)
    return (sector.rows, sector.ranks, *_assemble(sector.rows, sector.moves.values()))


def ground_state(params: LmgParams, sector="even", *, lams=None):
    """Lowest eigenpair of H, restricted to a parity sector.

    sector: "even" (default, where the ground state lives), "full", or a
    pair of 0/1 parities for levels 2 and 3, for degeneracy studies.
    lams: couplings solved at the N and epsilon of params as one Lanczos
    stack (see eigsh); the result is then a list, per coupling its result or
    the error its solve or residual check gave, naming only the sector.
    Each pair is finished on its own; a state solved on a parity sector
    holds that sector and its own copy of the eigenvector on it, so moments
    and populations never search for the sector, and its full-space vector
    is built only when coeffs is read.
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
    stack = [params] if lams is None else [replace(params, lam=lam) for lam in lams]
    where = f"sector={sector!r}"  # a stack's caller names each coupling itself
    where = f"at N={n}, lam={params.lam!r}, {where}" if lams is None else f"in {where}"
    hams = [_hamiltonian(p, key) for p in stack]
    z0 = [[1.0, point.alpha0, point.beta0] for point in map(stationary_point, stack)]
    starts = _coherent_amplitudes(rows, np.array(z0, dtype=np.complex128)).real
    starts[~starts.any(axis=1)] = 1.0 / math.sqrt(rows.ranks.size)
    if len(stack) != 1:
        pairs = eigsh(hams, k=1, which="SA", v0=starts)
    else:
        try:
            pairs = [eigsh(hams[0], k=1, which="SA", v0=starts[0])]
        except (IntegrityError, ValueError) as exc:  # no convergence, values out of range, LAPACK
            pairs = [exc]
    odd, results = (rows.rows % 2 == 1).T, []
    for p, ham, pair in zip(stack, hams, pairs):
        if isinstance(pair, Exception):
            results.append(type(pair)(f"eigensolver failed {where}: {pair}"))
            results[-1].__cause__ = pair
            continue
        energy, vec = float(pair[0][0]), pair[1][:, 0]
        misfit = ham @ vec - energy * vec
        residual = math.sqrt(np.add.reduce(misfit * misfit))  # numpy's sum: see eigsh
        if not residual <= _RESIDUAL_TOL * (p.epsilon + p.lam):  # NaN fails
            results.append(IntegrityError(f"eigenpair residual {residual:.3e} {where}"))
            continue
        weights = vec * vec  # <Pi_j> = sum of (-1)^(n_j) |c|^2, one 1-D sum per level
        signature = np.array([np.add.reduce(np.where(o, -weights, weights)) for o in odd])
        # deterministic sign: largest |coefficient| > 0; a copy, not a view of the stack
        state = SymmetricState._on_rows(basis, rows, vec.copy(), vec[np.argmax(np.abs(vec))] < 0)
        if key == "full":  # a full-space vector, searched for its sector
            state = SymmetricState(basis, state.coeffs)
        results.append(GroundStateResult(energy=energy, state=state, parity_signature=signature))
    return results if lams is not None else _only(results)


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


def variational_cat(basis: SymmetricBasis, params: LmgParams, *, lams=None):
    """Even cat state at the mean-field minimizer: the variational ground state.

    lams: couplings at the N and epsilon of params, made as one cat pass; the
    result is then a list, per coupling its cat or the error its call raises.
    """
    stack = [params] if lams is None else [replace(params, lam=lam) for lam in lams]
    cats = _dcats(basis, [[1.0, p.alpha0, p.beta0] for p in map(stationary_point, stack)])
    return cats if lams is not None else _only(cats)
