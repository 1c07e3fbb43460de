"""Fock basis and collective-spin machinery for N symmetric D-level bosons.

The state space is the fully symmetric sector of N identical D-level
systems, spanned by occupation vectors n = (n_1, ..., n_D) with
sum(n) = N.  Its dimension is C(N+D-1, D-1), polynomial in N, which is
what makes exact treatment of hundreds of particles possible.  The
collective transition operators S_ij (i, j = 1..D) act within the sector
through their bosonic (Schwinger) representation S_ij = a_i^dag a_j:

    S_ij |..., n_i, ..., n_j, ...>
        = sqrt((n_i + 1) n_j) |..., n_i + 1, ..., n_j - 1, ...>   (i != j)
    S_ii |n> = n_i |n>

so only sparse one-move matrix elements are ever needed; no D**N tensor
objects are built in this module.

Level indices are 1-based in every public signature, matching the usual
physics convention.  Internal storage is 0-based; _levels0 is the one
place a 1-based level becomes a 0-based position, and every other module
crosses that boundary through it.
Occupation vectors are enumerated in descending lexicographic order,
e.g. for N = 2, D = 3: (2,0,0), (1,1,0), (1,0,1), (0,2,0), (0,1,1),
(0,0,2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np
from scipy.linalg.blas import zgemm
from scipy.special import gammaln

from .errors import CapacityError, check_integer

# Refuse an occupation table (dim * D int64 entries) larger than this:
# the check runs before allocation, so an oversized sector fails with
# CapacityError instead of exhausting memory.
MAX_TABLE_BYTES = 2**30

_INT64_MAX = 2**63 - 1

__all__ = [
    "MAX_TABLE_BYTES",
    "dimension",
    "enumerate_occupations",
    "occupation_rank",
    "occupation_ranks",
    "occupation_unrank",
    "SymmetricBasis",
    "shared_basis",
    "SymmetricState",
    "basis_ket",
    "matrix_element",
    "apply_sij",
    "expval_sij",
    "expval_sij_skl",
    "expval_matrix",
    "expval_tables",
]


def dimension(n_particles: int, n_levels: int) -> int:
    """Dimension C(N+D-1, D-1) of the symmetric sector for (N, D)."""
    check_integer(n_particles, 0, None, "n_particles")
    check_integer(n_levels, 1, None, "n_levels")
    dim = math.comb(n_particles + n_levels - 1, n_levels - 1)
    if dim > _INT64_MAX:
        raise CapacityError(
            f"symmetric sector for N={n_particles}, D={n_levels} "
            f"overflows 64-bit indexing (dim={dim})"
        )
    return dim


def _levels0(n_levels: int, *levels) -> tuple:
    """0-based positions of 1-based level indices, each checked to lie in
    1..n_levels: the one place the 1-based boundary is crossed."""
    return tuple(check_integer(i, 1, n_levels, "level index") - 1 for i in levels)


def _compositions(total: int, slots: int):
    # descending lexicographic enumeration of `total` into `slots` parts
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _check_table_bytes(rows: int, n_levels: int, what: str) -> None:
    nbytes = rows * n_levels * 8
    if nbytes > MAX_TABLE_BYTES:
        raise CapacityError(
            f"{what} of {rows} x {n_levels} entries needs {nbytes} bytes"
            f" > {MAX_TABLE_BYTES}"
        )


def enumerate_occupations(n_particles: int, n_levels: int) -> np.ndarray:
    """All occupation vectors for (N, D) as a (dim, D) int64 array.

    Rows appear in descending lexicographic order; row r is the
    occupation of rank r.
    """
    dim = dimension(n_particles, n_levels)
    _check_table_bytes(dim, n_levels, f"occupation table for N={n_particles}")
    out = np.fromiter(
        (x for occ in _compositions(n_particles, n_levels) for x in occ),
        dtype=np.int64,
        count=dim * n_levels,
    )
    return out.reshape(dim, n_levels)


def _integer_array(values, what: str) -> np.ndarray:
    """The integer rule for arrays: an integer dtype, never bool or float."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _validate_occupation(occupation, n_particles: int, n_levels: int) -> np.ndarray:
    occ = _integer_array(occupation, "occupation").ravel()
    if occ.size != n_levels:
        raise ValueError(f"occupation has {occ.size} levels, expected {n_levels}")
    if (occ < 0).any():
        raise ValueError(f"negative occupation in {occ.tolist()}")
    if int(occ.sum()) != n_particles:
        raise ValueError(
            f"occupation {occ.tolist()} sums to {int(occ.sum())}, expected {n_particles}"
        )
    return occ


def occupation_ranks(occupations) -> np.ndarray:
    """Ranks of occupation vectors, each within its own (sum, D) sector.

    occupations has shape (..., D); the result has shape (...).  Counting
    argument: all vectors with a larger entry at the first differing
    position come earlier in descending lexicographic order, and the
    block passed over at position k holds C(m + r, r) vectors, with
    m + 1 the particles in positions after k and r = D - 1 - k (a
    hockey-stick sum).  Binomials come from a (max sum) x D Pascal table,
    so no entry exceeds the sector dimension.
    """
    occ = _integer_array(occupations, "occupations")
    if (occ < 0).any():
        raise ValueError("negative occupation in rank input")
    n_levels = occ.shape[-1]
    rows = occ.reshape(-1, n_levels)
    n_max = int(rows.sum(axis=1).max(initial=0))
    dimension(n_max, n_levels)  # CapacityError when ranks overflow int64
    _check_table_bytes(n_max, n_levels, "binomial table")
    table = np.ones((max(n_max, 1), n_levels), dtype=np.int64)
    for r in range(1, n_levels):
        table[:, r] = np.cumsum(table[:, r - 1])  # C(m + r, r)
    # m[:, k] = particles after position k, minus one; -1 marks an empty block
    m = np.cumsum(rows[:, :0:-1], axis=1)[:, ::-1] - 1
    r = np.arange(n_levels - 1, 0, -1)
    blocks = np.where(m >= 0, table[np.maximum(m, 0), r], 0)
    return blocks.sum(axis=1).reshape(occ.shape[:-1])


def occupation_rank(occupation) -> int:
    """Rank of one occupation vector; the one-row case of occupation_ranks."""
    return int(occupation_ranks(np.ravel(occupation)))


def occupation_unrank(index: int, n_particles: int, n_levels: int) -> np.ndarray:
    """Occupation vector of the given rank, inverse of occupation_rank."""
    dim = dimension(n_particles, n_levels)
    idx = check_integer(index, 0, dim - 1, "rank")
    occ = np.empty(n_levels, dtype=np.int64)
    remaining = n_particles
    for k in range(n_levels - 1):
        d_rest = n_levels - k - 1
        value = remaining
        while True:
            block = math.comb(remaining - value + d_rest - 1, d_rest - 1)
            if idx < block:
                break
            idx -= block
            value -= 1
        occ[k] = value
        remaining -= value
    occ[-1] = remaining
    return occ


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class RowSet:
    """One row set, the full occupation table or one parity sector, and its
    invariants: rows = occupations[ranks], floats (the same rows as
    float64), half_log_mult = 0.5 (log N! - sum_i log n_i!) per row and,
    built on first use, moves[(i0, j0)] (i0 != j0), the (src, dst, amp)
    table of S_ij**2 in row indices.  Arrays are read-only; no basis is
    held, so a cached row set keeps no evicted basis alive."""

    def __init__(self, rows: np.ndarray, ranks: np.ndarray, n_particles: int):
        self.rows, self.ranks, self.n_particles = _frozen(rows), _frozen(ranks), n_particles
        self.floats = _frozen(rows.astype(np.float64))
        log_factorials = gammaln(rows + 1.0).sum(axis=1)
        self.half_log_mult = _frozen(0.5 * (gammaln(n_particles + 1) - log_factorials))

    @cached_property
    def moves(self) -> dict:
        # S_ij**2 keeps every parity, so a sector's moves stay inside it
        moves = {}
        for i0, j0 in permutations(range(self.rows.shape[1]), 2):
            src, dst, amp = _moves(self.rows, i0, j0, 2)
            moves[i0, j0] = src, np.searchsorted(self.ranks, dst), amp
        return moves


class SymmetricBasis:
    """Ranked enumeration of the symmetric (N, D) sector.

    Immutable after construction and safe to share across threads or
    (pickled) worker processes.  Holds the occupation table, its per-row
    parity codes and, built on first use, memoized S_ij one-move tables and
    the RowSet of the full table and of each parity sector; ranks come from
    occupation_ranks.
    """

    def __init__(self, n_particles: int, n_levels: int):
        self.n_particles = check_integer(n_particles, 1, None, "n_particles")
        self.n_levels = check_integer(n_levels, 2, None, "n_levels")
        self.dim = dimension(self.n_particles, self.n_levels)
        self.occupations = _frozen(enumerate_occupations(self.n_particles, self.n_levels))
        # row code sum_k (n_{k+2} mod 2) 2**k in the smallest dtype that holds
        # D - 1 bits (object beyond 64): rows with equal codes share a sector
        dtype = np.min_scalar_type(2 ** (self.n_levels - 1) - 1)
        weights = np.array([1 << k for k in range(self.n_levels - 1)], dtype=dtype)
        self.parity_codes = _frozen((self.occupations[:, 1:] % 2).astype(dtype) @ weights)
        self._move_cache: dict = {}
        self._sector_cache: dict = {}

    def __repr__(self) -> str:
        return (
            f"SymmetricBasis(n_particles={self.n_particles}, "
            f"n_levels={self.n_levels}, dim={self.dim})"
        )

    def rank(self, occupation) -> int:
        occ = _validate_occupation(occupation, self.n_particles, self.n_levels)
        return occupation_rank(occ)

    def unrank(self, index: int) -> np.ndarray:
        return self.occupations[check_integer(index, 0, self.dim - 1, "rank")].copy()

    def transitions(self, i: int, j: int):
        """Sparse action of S_ij: arrays (src, dst, amp).

        (S_ij psi)[dst] += amp * psi[src]; memoized per (i, j).
        """
        return self._transitions0(*_levels0(self.n_levels, i, j))

    def _transitions0(self, i0: int, j0: int):
        key = (i0, j0)
        if key not in self._move_cache:
            self._move_cache[key] = _moves(self.occupations, i0, j0, 1)
        return self._move_cache[key]

    @cached_property
    def full_rows(self) -> RowSet:
        """RowSet of the whole occupation table (ranks 0..dim-1)."""
        return RowSet(self.occupations, np.arange(self.dim), self.n_particles)

    def sector_rows(self, parities) -> RowSet:
        """Memoized RowSet of the sector whose levels 2..D have the given
        0/1 parities; its moves are built only when read."""
        key = tuple(check_integer(p, 0, 1, "parity") for p in parities)
        if len(key) != self.n_levels - 1:
            raise ValueError(f"need {self.n_levels - 1} parities, got {len(key)}")
        if key not in self._sector_cache:
            code = sum(p << k for k, p in enumerate(key))
            ranks = np.flatnonzero(self.parity_codes == code)
            self._sector_cache[key] = RowSet(self.occupations[ranks], ranks, self.n_particles)
        return self._sector_cache[key]

    def parity_sector(self, parities):
        """Memoized (ranks, moves) of a parity sector: the ranks and S_ij**2
        move tables of sector_rows(parities), the moves built if not yet."""
        sector = self.sector_rows(parities)
        return sector.ranks, sector.moves

    def state_sector(self, coeffs: np.ndarray) -> RowSet | None:
        """RowSet of the one parity sector holding every nonzero entry of
        coeffs, or None when they span several sectors or all vanish."""
        nonzero = coeffs.astype(bool)
        first = nonzero.argmax()
        code = int(self.parity_codes[first])
        if not nonzero[first] or (nonzero & (self.parity_codes != code)).any():
            return None
        return self.sector_rows([code >> k & 1 for k in range(self.n_levels - 1)])


def _moves(occupations: np.ndarray, i0: int, j0: int, power: int):
    """Sparse action of S_ij**power on an occupation table: (src, dst, amp).

    The one place the Schwinger move is written: each row with n_j >=
    power moves `power` bosons from level j to level i, with amplitude
    sqrt(prod_t (n_i + 1 + t) (n_j - t)).  The product is formed in
    integers, exact in float64 for every sector MAX_TABLE_BYTES admits.
    """
    occ = occupations
    if i0 == j0:
        idx = np.arange(occ.shape[0])
        return idx, idx, occ[:, i0].astype(np.float64) ** power
    src = np.flatnonzero(occ[:, j0] >= power)
    ni, nj = occ[src, i0], occ[src, j0]
    product = np.ones(src.size, dtype=np.int64)
    for t in range(power):
        product *= (ni + 1 + t) * (nj - t)
    shifted = occ[src]
    shifted[:, i0] += power
    shifted[:, j0] -= power
    return src, occupation_ranks(shifted), np.sqrt(product.astype(np.float64))


@lru_cache(maxsize=16)
def shared_basis(n_particles: int, n_levels: int) -> SymmetricBasis:
    """The one SymmetricBasis per (N, D) that sweeps, surfaces and
    ground-state solves share, with its memoized move tables."""
    return SymmetricBasis(n_particles, n_levels)


@dataclass
class SymmetricState:
    """Vector in the symmetric sector: complex coefficients over the basis.

    The coefficients are read-only, a writeable array passed in being
    copied, so the parity sector they lie in is chosen once per state."""

    basis: SymmetricBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        if c.size != self.basis.dim:
            raise ValueError(
                f"coefficient vector has length {c.size}, basis dim {self.basis.dim}"
            )
        if c.flags.writeable and np.may_share_memory(c, self.coeffs):
            c = c.copy()  # a caller's array may change; a read-only one is kept
        self.coeffs = _frozen(c)
        self._sector = None  # (coeffs, state_sector(coeffs)) once chosen

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "SymmetricState":
        n = self.norm
        if n < 1e-14:
            raise ValueError("cannot normalize a zero state")
        return SymmetricState(self.basis, _frozen(self.coeffs / n))

    def overlap(self, other: "SymmetricState") -> complex:
        _same_basis(self, other)
        return complex(np.vdot(self.coeffs, other.coeffs))


def _state_sector(state: SymmetricState) -> RowSet | None:
    """basis.state_sector of the state's coefficients, chosen once per
    state: they are read-only, so the choice stays valid."""
    if state._sector is None or state._sector[0] is not state.coeffs:
        state._sector = (state.coeffs, state.basis.state_sector(state.coeffs))
    return state._sector[1]


def _same_basis(a: SymmetricState, b: SymmetricState) -> None:
    if a.basis is b.basis:
        return
    if (
        a.basis.n_particles != b.basis.n_particles
        or a.basis.n_levels != b.basis.n_levels
    ):
        raise ValueError("states live in different sectors")


def basis_ket(basis: SymmetricBasis, occupation) -> SymmetricState:
    """Unit vector on a single occupation."""
    c = np.zeros(basis.dim, dtype=np.complex128)
    c[basis.rank(occupation)] = 1.0
    return SymmetricState(basis, c)


def matrix_element(bra_occ, ket_occ, i: int, j: int) -> float:
    """<bra| S_ij |ket> between occupation kets (real by convention)."""
    bra = np.asarray(bra_occ, dtype=np.int64).ravel()
    ket = np.asarray(ket_occ, dtype=np.int64).ravel()
    if bra.size != ket.size:
        raise ValueError("bra and ket have different level counts")
    i0, j0 = _levels0(ket.size, i, j)
    if i0 == j0:
        if np.array_equal(bra, ket):
            return float(ket[i0])
        return 0.0
    if ket[j0] < 1:
        return 0.0
    moved = ket.copy()
    moved[i0] += 1
    moved[j0] -= 1
    if not np.array_equal(bra, moved):
        return 0.0
    return math.sqrt(float((ket[i0] + 1) * ket[j0]))


def apply_sij(state: SymmetricState, i: int, j: int) -> SymmetricState:
    """S_ij |psi>, unnormalized, O(dim)."""
    basis = state.basis
    src, dst, amp = basis.transitions(i, j)
    out = np.zeros(basis.dim, dtype=np.complex128)
    out[dst] = amp * state.coeffs[src]
    return SymmetricState(basis, _frozen(out))


def expval_sij(state: SymmetricState, i: int, j: int) -> complex:
    """<psi| S_ij |psi> via the sparse one-move sum."""
    basis = state.basis
    src, dst, amp = basis.transitions(i, j)
    c = state.coeffs
    if i == j:
        return complex(np.sum(amp * np.abs(c) ** 2))
    return complex(np.sum(np.conj(c[dst]) * amp * c[src]))


def expval_sij_skl(state: SymmetricState, i: int, j: int, k: int, l: int) -> complex:
    """<psi| S_ij S_kl |psi> as <S_ji psi | S_kl psi> (two sparse applies)."""
    left = apply_sij(state, j, i)
    right = apply_sij(state, k, l)
    return complex(np.vdot(left.coeffs, right.coeffs))


def expval_matrix(state: SymmetricState) -> np.ndarray:
    """All first moments: S[a, b] = <S_{a+1, b+1}> as a (D, D) array."""
    return expval_tables(state)[0]


def expval_tables(state: SymmetricState):
    """First and second moments of the collective operators.

    Returns (S, Q) with S[a, b] = <S_{a+1, b+1}> of shape (D, D) and
    Q[a, b, c, e] = <S_{a+1, b+1} S_{c+1, e+1}> of shape (D, D, D, D).
    On one parity sector every S_ij (i != j) leaves the sector, so S =
    diag<n_i> and Q holds only <n_i n_k>, <S_ij S_ji> = <n_i (n_j + 1)>
    and <S_ij^2> (i < j from the sector's moves, <S_ji^2> its conjugate):
    O(dim) numpy reductions, none through BLAS.  Any other
    state pays D**2 memoized moves scattered into one (D**2, dim) block
    plus one Gram matrix product, instead of D**4 quadratic evaluations.
    """
    basis = state.basis
    d = basis.n_levels
    c = state.coeffs
    sector = _state_sector(state)
    if sector is not None:
        n = sector.floats
        c = c[sector.ranks]
        weighted = n.T * np.abs(c) ** 2
        mean, nn = weighted.sum(axis=1), weighted @ n
        Q = np.zeros((d,) * 4, dtype=np.complex128)
        a, b = np.arange(d)[:, None], np.arange(d)
        Q[a, b, b, a] = nn + mean[:, None]
        Q[a, a, b, b] = nn  # overwrites a = b above, where <S_aa S_aa> = <n_a^2>
        for (i0, j0), (src, dst, amp) in sector.moves.items():
            if i0 < j0:  # S_ji**2 is the adjoint of S_ij**2
                # numpy's pairwise sum, not BLAS zdotc, whose threaded
                # split reorders the sum with the BLAS thread count
                Q[i0, j0, i0, j0] = (np.conj(c[dst]) * (amp * c[src])).sum()
                Q[j0, i0, j0, i0] = Q[i0, j0, i0, j0].conjugate()
        return np.diag(mean).astype(np.complex128), Q
    applied = np.zeros((d * d, basis.dim), dtype=np.complex128)
    for i0 in range(d):
        for j0 in range(d):
            src, dst, amp = basis._transitions0(i0, j0)
            applied[i0 * d + j0, dst] = amp * c[src]
    # gram[p, q] = <S_p psi | S_q psi>; with p = (j, i) this is <S_ij S_q>.
    # zgemm conjugates inside the product (trans_a=2): no conjugated copy
    gram = zgemm(1.0, applied.T, applied.T, trans_a=2)
    S = (np.conj(c) @ applied.T).reshape(d, d)
    Q = gram.reshape(d, d, d, d).transpose(1, 0, 2, 3)
    return S, Q
