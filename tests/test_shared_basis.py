"""One vectorized rank function and one shared basis per (N, D).

Oracles: the recursive enumeration order (row r has rank r), the scalar
occupation_rank, and a count of SymmetricBasis constructions during a
sweep.
"""

import math

import numpy as np
import pytest

import udspin.sweep as sweep
from udspin.basis import (
    MAX_TABLE_BYTES,
    SymmetricBasis,
    dimension,
    enumerate_occupations,
    occupation_rank,
    occupation_ranks,
    shared_basis,
)
from udspin.cli import main
from udspin.errors import CapacityError
from udspin.lmg import LmgParams, build_hamiltonian
from udspin.sweep import SweepConfig, run_sweep


@pytest.mark.parametrize("n, d", [(400, 3), (30, 5), (1, 2), (2, 70)])
def test_ranks_of_enumeration_are_arange(n, d):
    occ = enumerate_occupations(n, d)
    np.testing.assert_array_equal(occupation_ranks(occ), np.arange(dimension(n, d)))


def test_rank_table_stays_within_int64():
    # a naive C(a, r) table over a < N + D would need C(67, 33) here
    assert math.comb(67, 33) > 2**63 - 1
    last = np.zeros(70, dtype=np.int64)
    last[-1] = 2
    assert occupation_ranks(last) == dimension(2, 70) - 1


def test_ranks_keep_leading_shape_and_match_scalar_rank():
    occ = enumerate_occupations(6, 4)
    stacked = np.stack([occ, occ[::-1]])
    ranks = occupation_ranks(stacked)
    assert ranks.shape == (2, occ.shape[0])
    np.testing.assert_array_equal(ranks[1], np.arange(occ.shape[0])[::-1])
    for row, rank in zip(occ, ranks[0]):
        assert occupation_rank(row) == rank


def test_ranks_reject_negative_entries():
    with pytest.raises(ValueError):
        occupation_ranks([[2, -1, 1]])


def test_capacity_bound_raises_before_allocation():
    # dim 96,560,646 x 6 levels x 8 bytes is about 4.6 GB of occupations
    assert dimension(100, 6) * 6 * 8 > MAX_TABLE_BYTES
    with pytest.raises(CapacityError):
        SymmetricBasis(100, 6)
    with pytest.raises(CapacityError):
        enumerate_occupations(100, 6)


def test_cli_state_over_capacity_exits_2(capsys):
    code = main(["state", "--n", "100", "--levels", "6", "--z", "1,1,1,1,1,1"])
    assert code == 2
    assert "bytes" in capsys.readouterr().err


def test_shared_basis_is_cached_per_sector():
    assert shared_basis(7, 3) is shared_basis(7, 3)
    assert shared_basis(7, 3) is not shared_basis(7, 4)


def test_sweep_builds_one_basis_shared_by_both_sources(monkeypatch):
    n = 23  # used by no other test, so no cache holds it yet
    built = []
    original_init = SymmetricBasis.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original_init(self, *args, **kwargs)

    seen = []
    original_populations = sweep.level_populations

    def recording_populations(states, i):
        seen.extend(state.basis for state in states)
        return original_populations(states, i)

    monkeypatch.setattr(SymmetricBasis, "__init__", counting_init)
    monkeypatch.setattr(sweep, "level_populations", recording_populations)
    records = run_sweep(SweepConfig(n_particles=n, lambdas=(0.0, 1.0, 2.0)))
    build_hamiltonian(shared_basis(n, 3), LmgParams(n_particles=n, lam=1.0))
    assert {r.source for r in records} == {"numerical", "variational"}
    assert built == [(n, 3)]
    assert len(seen) == 3 * len(records)
    assert all(basis is seen[0] for basis in seen)
    assert seen[0] is shared_basis(n, 3)
