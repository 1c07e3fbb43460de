"""Closed-form moment tables at the smallest particle numbers.

The closed (S, Q) tables of the coherent, cat and NOON-type states are
compared with expval_tables of the explicitly built state vector at
N = 1 and 2, where the u^(N-2) term of the cat table must drop out, and
the two-particle purity must refuse N < 2 instead of returning nan.
"""

import numpy as np
import pytest

from udspin.basis import SymmetricBasis, expval_tables
from udspin.rdm import dcat_two_qudit_purity, two_qudit_purity_from_tables
from udspin.states import (
    dcat,
    dcat_expval_sij,
    dcat_expval_tables,
    dscs,
    dscs_expval_tables,
    nodon,
    nodon_expval_sij_skl,
    nodon_expval_tables,
)

ORBITALS = {
    2: [(1.0, 1.0), (1.0, 0.6 - 0.3j)],
    5: [(1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 0.7 + 0.2j, -0.4, 0.3j, 0.9)],
}


def _assert_tables_match(closed, state):
    S_state, Q_state = expval_tables(state)
    np.testing.assert_allclose(closed[0], S_state, atol=1e-12)
    np.testing.assert_allclose(closed[1], Q_state, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [2, 5])
def test_dscs_tables_small_n(n, d):
    basis = SymmetricBasis(n, d)
    for z in ORBITALS[d]:
        _assert_tables_match(dscs_expval_tables(z, n), dscs(basis, z))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [2, 5])
def test_dcat_tables_small_n(n, d):
    basis = SymmetricBasis(n, d)
    for z in ORBITALS[d]:
        _assert_tables_match(dcat_expval_tables(z, n), dcat(basis, z))


def test_dcat_table_with_vanishing_overlap_at_one_particle():
    # z = (1, 1): the flipped pattern has u_b = 0, so u_b^(N-2) would be 1/0
    S, Q = dcat_expval_tables((1.0, 1.0), 1)
    assert np.isfinite(S).all() and np.isfinite(Q).all()
    _assert_tables_match((S, Q), dcat(SymmetricBasis(1, 2), (1.0, 1.0)))


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("d", [2, 5])
def test_nodon_tables(n, d):
    phases = np.linspace(0.0, 2.0, d)
    _assert_tables_match(nodon_expval_tables(n, d), nodon(SymmetricBasis(n, d), phases))


def test_nodon_tables_reject_small_n():
    with pytest.raises(ValueError):
        nodon_expval_tables(2, 3)


def test_per_entry_names_read_the_tables():
    z = (1.0, 0.8, 0.45)
    S, _ = dcat_expval_tables(z, 7)
    assert dcat_expval_sij(z, 7, 2, 2) == S[1, 1]
    assert dcat_expval_sij(z, 7, 1, 3) == 0j
    _, Q = nodon_expval_tables(5, 3)
    assert nodon_expval_sij_skl(5, 3, 1, 2, 2, 1) == Q[0, 1, 1, 0]
    with pytest.raises(ValueError):
        dcat_expval_sij(z, 7, 0, 1)
    with pytest.raises(ValueError):
        nodon_expval_sij_skl(5, 3, 1, 2, 4, 1)


def test_two_particle_purity_rejects_one_particle():
    z = (1.0, 0.6, 0.3)
    with pytest.raises(ValueError):
        two_qudit_purity_from_tables(*dscs_expval_tables(z, 1), 1)
    with pytest.raises(ValueError):
        dcat_two_qudit_purity(z, 1)
