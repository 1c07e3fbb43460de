"""Collective squeezing parameters for symmetric D-level systems.

For every level pair i > j an SU(2) triple is embedded in the collective
algebra (J_x = (S_ij + S_ji)/2 etc.) and the pair parameter

    xi2_ij = [<S_ij S_ji + S_ji S_ij> - 2 |<S_ij^2>|] / (N (D - 1))

is the minimal transverse variance of that triple for states with
vanishing first moments <S_ij>, normalized so that coherent states give
sum_ij xi2_ij = 1.  Values below 1/(number of pairs) signal squeezing of
that pair; the total below 1 signals collective squeezing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SymmetricState, _levels0, expval_sij, expval_sij_skl, expval_tables
from .errors import _ROUNDOFF, check_range, check_ranges

__all__ = [
    "SqueezingReport",
    "xi_pair",
    "xi_pair_from_tables",
    "xi_total",
    "squeezing_report",
    "squeezing_report_from_tables",
    "su2_xi",
]


@dataclass(frozen=True)
class SqueezingReport:
    """Pairwise parameters keyed by (i, j), i > j, and their sum; arrays for a stack."""

    pairwise: dict
    total: float


def _check_pair(n_levels: int, i: int, j: int) -> tuple:
    """0-based (i0, j0) of a level pair with j < i."""
    i0, j0 = _levels0(n_levels, i, j)
    if j0 >= i0:
        raise ValueError(f"need 1 <= j < i <= {n_levels}, got (i={i}, j={j})")
    return i0, j0


def xi_pair_from_tables(Q: np.ndarray, n_particles: int, i: int, j: int):
    """Pair squeezing parameter from a quadratic moment table, or a stack."""
    d = Q.shape[-1]
    i0, j0 = _check_pair(d, i, j)
    sym = (Q[..., i0, j0, j0, i0] + Q[..., j0, i0, i0, j0]).real
    off = abs(Q[..., i0, j0, i0, j0])
    xi2 = (sym - 2.0 * off) / (n_particles * (d - 1.0))
    return check_ranges(xi2, "nonneg", "pair squeezing parameter", _ROUNDOFF)


def xi_pair(state: SymmetricState, i: int, j: int) -> float:
    """Pair squeezing parameter of a state, read from its moment tables."""
    return xi_pair_from_tables(expval_tables(state)[1], state.basis.n_particles, i, j)


def squeezing_report_from_tables(Q: np.ndarray, n_particles: int) -> SqueezingReport:
    """The report of one table, or of a stack with arrays for values."""
    d = Q.shape[-1]
    pairwise = {}
    for i in range(2, d + 1):
        for j in range(1, i):
            pairwise[(i, j)] = xi_pair_from_tables(Q, n_particles, i, j)
    return SqueezingReport(pairwise=pairwise, total=sum(pairwise.values()))


def squeezing_report(state: SymmetricState) -> SqueezingReport:
    _, Q = expval_tables(state)
    return squeezing_report_from_tables(Q, state.basis.n_particles)


def xi_total(state: SymmetricState) -> float:
    return squeezing_report(state).total


def su2_xi(state: SymmetricState) -> float:
    """Two-level squeezing parameter in its textbook J-operator form.

    xi2 = (2/N) [<Jx^2 + Jy^2> - sqrt(<Jx^2 - Jy^2>^2 + <JxJy + JyJx>^2)]

    Requires D = 2 and vanishing transverse first moments
    (<Jx> = <Jy> = 0, i.e. <S_12> = 0), the regime where the minimal
    variance in the x-y plane takes this closed form.
    """
    basis = state.basis
    if basis.n_levels != 2:
        raise ValueError("su2_xi requires a two-level system")
    first = expval_sij(state, 1, 2)
    if abs(first) > 1e-10:
        raise ValueError(f"transverse first moment <S_12> = {first!r} must vanish")
    s1221 = expval_sij_skl(state, 1, 2, 2, 1)
    s2112 = expval_sij_skl(state, 2, 1, 1, 2)
    s1212 = expval_sij_skl(state, 1, 2, 1, 2)
    jx2 = 0.25 * (2.0 * s1212.real + (s1221 + s2112).real)
    jy2 = 0.25 * ((s1221 + s2112).real - 2.0 * s1212.real)
    cross = -s1212.imag  # <JxJy + JyJx>
    radius = np.hypot(jx2 - jy2, cross)
    xi2 = 2.0 / basis.n_particles * (jx2 + jy2 - radius)
    return check_range(xi2, "nonneg", "two-level squeezing parameter", _ROUNDOFF)
