"""Row-set invariants cached once per basis, and the integer rules for
occupation arrays and closed-form particle numbers.

Oracles: a fresh astype / gammaln over occupations[ranks], the parity
mask over the occupation table, and the full-table bincount.
"""

import numpy as np
import pytest
from scipy.special import gammaln

from udspin.basis import (
    SymmetricBasis,
    SymmetricState,
    expval_tables,
    occupation_ranks,
)
from udspin.lmg import LmgParams, ground_state
from udspin.rdm import dscs_level_weights, level_populations
from udspin.states import (
    dcat,
    dcat_expval_tables,
    dcat_norm_squared,
    dscs,
    dscs_expval_tables,
    dscs_overlap,
    dscs_transition_sij,
)


def _sectors(d):
    return list(np.ndindex(*(2,) * (d - 1)))


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, d", [(7, 3), (30, 4), (50, 3)])
def test_cached_rows_equal_a_fresh_computation(n, d):
    basis = SymmetricBasis(n, d)
    occ = basis.occupations
    row_sets = [(np.arange(basis.dim), basis.full_rows)]
    for parities in _sectors(d):
        ranks = np.flatnonzero((occ[:, 1:] % 2 == parities).all(axis=1))
        row_sets.append((ranks, basis.sector_rows(parities)))
    for ranks, rows in row_sets:
        fresh = occ[ranks]
        assert _same_bytes(rows.ranks, ranks) and _same_bytes(rows.rows, fresh)
        assert _same_bytes(rows.floats, fresh.astype(np.float64))
        half = 0.5 * (gammaln(n + 1) - gammaln(fresh + 1.0).sum(axis=1))
        assert _same_bytes(rows.half_log_mult, half)
        assert not (rows.rows.flags.writeable or rows.floats.flags.writeable)


def _full_table_populations(state, i):
    basis = state.basis
    weights = np.abs(state.coeffs) ** 2
    return np.bincount(
        basis.occupations[:, i - 1], weights=weights, minlength=basis.n_particles + 1
    )


@pytest.mark.parametrize("parities", _sectors(3))
def test_ground_state_populations_equal_the_full_table_bincount(parities):
    state = ground_state(LmgParams(n_particles=40, lam=1.2), sector=parities).state
    for i in (1, 2, 3):
        assert _same_bytes(level_populations(state, i), _full_table_populations(state, i))


def test_cat_populations_equal_the_full_table_bincount():
    state = dcat(SymmetricBasis(14, 4), (1.0, 0.6 - 0.2j, 0.3j, 0.8))
    for i in (1, 2, 3, 4):
        assert _same_bytes(level_populations(state, i), _full_table_populations(state, i))


def _route(state):
    """'sector' or 'gram', read off the caches of a fresh basis."""
    basis = SymmetricBasis(state.basis.n_particles, state.basis.n_levels)
    expval_tables(SymmetricState(basis, state.coeffs))
    if basis._move_cache == {} and len(basis._sector_cache) == 1:
        return "sector"
    assert basis._sector_cache == {} and basis._move_cache
    return "gram"


def test_route_choice():
    rng = np.random.default_rng(11)
    assert _route(ground_state(LmgParams(n_particles=12, lam=2.0)).state) == "sector"
    assert _route(dcat(SymmetricBasis(9, 4), (1.0, 0.4, 0.7j, -0.5))) == "sector"
    basis = SymmetricBasis(8, 3)
    for parities in _sectors(3):
        ranks = basis.sector_rows(parities).ranks
        c = np.zeros(basis.dim, dtype=np.complex128)
        c[ranks] = rng.normal(size=ranks.size) + 1j * rng.normal(size=ranks.size)
        assert _route(SymmetricState(basis, c)) == "sector"
    assert _route(dscs(basis, (1.0, 0.5, 0.3 - 0.2j))) == "gram"
    assert _route(SymmetricState(basis, np.zeros(basis.dim))) == "gram"


def test_parity_codes_tell_sectors_apart_beyond_64_levels():
    d = 70
    basis = SymmetricBasis(2, d)

    def pair(level):  # one particle on level 1, one on `level`
        occ = np.zeros(d, dtype=np.int64)
        occ[[0, level - 1]] = 1
        return basis.rank(occ)

    assert len(set(basis.parity_codes.tolist())) == 1 + d - 1 + (d - 1) * (d - 2) // 2
    c = np.zeros(basis.dim)
    c[pair(70)] = 1.0
    assert basis.state_sector(c).ranks.tolist() == [pair(70)]
    c[pair(6)] = 1.0  # level 6 is bit 4, and 68 = 4 mod 64
    assert basis.state_sector(c) is None


def test_dcat_builds_no_move_table():
    basis = SymmetricBasis(20, 5)
    dcat(basis, (1.0, 0.3, 0.2, 0.1, 0.4))
    (sector,) = basis._sector_cache.values()
    assert "moves" not in vars(sector) and basis._move_cache == {}
    ranks, moves = basis.parity_sector((0, 0, 0, 0))
    assert ranks is sector.ranks and len(moves) == 20


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: SymmetricBasis(3, 3).rank([1.5, 1.5, 1.0]), "occupation"),
        (lambda: SymmetricBasis(3, 3).rank(np.array([1.0, 1.0, 1.0])), "occupation"),
        (lambda: SymmetricBasis(2, 2).rank(np.array([True, True])), "occupation"),
        (lambda: occupation_ranks([[1.5, 0.7, 1.0]]), "occupations"),
        (lambda: occupation_ranks(np.array([[True, False, True]])), "occupations"),
    ],
)
def test_occupation_arrays_must_hold_integers(call, what):
    with pytest.raises(ValueError, match=what):
        call()


def test_integer_occupation_arrays_still_rank():
    basis = SymmetricBasis(3, 3)
    assert basis.rank([1, 1, 1]) == basis.rank(np.array([1, 1, 1], dtype=np.uint8)) == 4
    assert occupation_ranks([[1, 1, 1], [3, 0, 0]]).tolist() == [4, 0]


@pytest.mark.parametrize(
    "call",
    [
        lambda n: dscs_expval_tables((1.0, 0.5, 0.2), n),
        lambda n: dcat_expval_tables((1.0, 0.5, 0.2), n),
        lambda n: dcat_norm_squared((1.0, 0.5, 0.2), n),
        lambda n: dscs_level_weights(n, 1.0, 1.0),
        lambda n: dscs_overlap((1.0, 0.5), (1.0, 0.3), n),
        lambda n: dscs_transition_sij((1.0, 0.5), (1.0, 0.3), n, 1, 2),
    ],
)
@pytest.mark.parametrize("n", [2.5, 4.0, True, 0])
def test_closed_forms_refuse_a_non_integer_particle_number(call, n):
    with pytest.raises(ValueError, match="n_particles"):
        call(n)
