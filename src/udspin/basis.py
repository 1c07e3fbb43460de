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
physics convention.  Internal storage is 0-based; this is the only place
where that boundary is documented and every other module follows it.
Occupation vectors are enumerated in descending lexicographic order,
e.g. for N = 2, D = 3: (2,0,0), (1,1,0), (1,0,1), (0,2,0), (0,1,1),
(0,0,2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError

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
    if n_particles < 0:
        raise ValueError(f"need n_particles >= 0, got {n_particles}")
    if n_levels < 1:
        raise ValueError(f"need n_levels >= 1, got {n_levels}")
    dim = math.comb(n_particles + n_levels - 1, n_levels - 1)
    if dim > _INT64_MAX:
        raise CapacityError(
            f"symmetric sector for N={n_particles}, D={n_levels} "
            f"overflows 64-bit indexing (dim={dim})"
        )
    return dim


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


def _validate_occupation(occupation, n_particles: int, n_levels: int) -> np.ndarray:
    occ = np.asarray(occupation, dtype=np.int64).ravel()
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
    occ = np.asarray(occupations, dtype=np.int64)
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
    if not 0 <= index < dim:
        raise ValueError(f"rank {index} outside [0, {dim})")
    occ = np.empty(n_levels, dtype=np.int64)
    remaining = n_particles
    idx = int(index)
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


class SymmetricBasis:
    """Ranked enumeration of the symmetric (N, D) sector.

    Immutable after construction and safe to share across threads or
    (pickled) worker processes.  Holds the occupation table and memoized
    one-move tables for every S_ij; ranks come from occupation_ranks.
    """

    def __init__(self, n_particles: int, n_levels: int):
        if n_particles < 1:
            raise ValueError(f"need n_particles >= 1, got {n_particles}")
        if n_levels < 2:
            raise ValueError(f"need n_levels >= 2, got {n_levels}")
        self.n_particles = int(n_particles)
        self.n_levels = int(n_levels)
        self.dim = dimension(n_particles, n_levels)
        self.occupations = enumerate_occupations(n_particles, n_levels)
        self.occupations.setflags(write=False)
        self._moves: dict = {}

    def __repr__(self) -> str:
        return (
            f"SymmetricBasis(n_particles={self.n_particles}, "
            f"n_levels={self.n_levels}, dim={self.dim})"
        )

    def rank(self, occupation) -> int:
        occ = _validate_occupation(occupation, self.n_particles, self.n_levels)
        return occupation_rank(occ)

    def unrank(self, index: int) -> np.ndarray:
        if not 0 <= index < self.dim:
            raise ValueError(f"rank {index} outside [0, {self.dim})")
        return self.occupations[index].copy()

    def _check_level(self, i: int) -> int:
        if not 1 <= i <= self.n_levels:
            raise ValueError(f"level index {i} outside 1..{self.n_levels}")
        return i - 1

    def transitions(self, i: int, j: int):
        """Sparse action of S_ij: arrays (src, dst, amp).

        (S_ij psi)[dst] += amp * psi[src]; memoized per (i, j).
        """
        return self._transitions0(self._check_level(i), self._check_level(j))

    def _transitions0(self, i0: int, j0: int):
        key = (i0, j0)
        cached = self._moves.get(key)
        if cached is not None:
            return cached
        occ = self.occupations
        if i0 == j0:
            idx = np.arange(self.dim)
            trip = (idx, idx, occ[:, i0].astype(np.float64))
        else:
            src = np.flatnonzero(occ[:, j0] > 0)
            amp = np.sqrt((occ[src, i0] + 1.0) * occ[src, j0])
            shifted = occ[src].copy()
            shifted[:, i0] += 1
            shifted[:, j0] -= 1
            trip = (src, occupation_ranks(shifted), amp)
        self._moves[key] = trip
        return trip


@lru_cache(maxsize=16)
def shared_basis(n_particles: int, n_levels: int) -> SymmetricBasis:
    """The one SymmetricBasis per (N, D) that sweeps, surfaces and the
    Hamiltonian workspace share, with its memoized move tables."""
    return SymmetricBasis(n_particles, n_levels)


@dataclass
class SymmetricState:
    """Vector in the symmetric sector: complex coefficients over the basis."""

    basis: SymmetricBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        if c.size != self.basis.dim:
            raise ValueError(
                f"coefficient vector has length {c.size}, basis dim {self.basis.dim}"
            )
        self.coeffs = c

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "SymmetricState":
        n = self.norm
        if n < 1e-14:
            raise ValueError("cannot normalize a zero state")
        return SymmetricState(self.basis, self.coeffs / n)

    def overlap(self, other: "SymmetricState") -> complex:
        _same_basis(self, other)
        return complex(np.vdot(self.coeffs, other.coeffs))


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
    n_levels = ket.size
    if not (1 <= i <= n_levels and 1 <= j <= n_levels):
        raise ValueError(f"level indices ({i}, {j}) outside 1..{n_levels}")
    i0, j0 = i - 1, j - 1
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
    return SymmetricState(basis, out)


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
    Cost: D**2 sparse applies plus one Gram matrix product, instead of
    D**4 independent quadratic evaluations.
    """
    basis = state.basis
    d = basis.n_levels
    applied = np.empty((d * d, basis.dim), dtype=np.complex128)
    for i0 in range(d):
        for j0 in range(d):
            applied[i0 * d + j0] = apply_sij(state, i0 + 1, j0 + 1).coeffs
    # gram[p, q] = <S_p psi | S_q psi>; with p = (j, i) this is <S_ij S_q>
    gram = np.conj(applied) @ applied.T
    S = (np.conj(state.coeffs) @ applied.T).reshape(d, d)
    Q = gram.reshape(d, d, d, d).transpose(1, 0, 2, 3)
    return S, Q
