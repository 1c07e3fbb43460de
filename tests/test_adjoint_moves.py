"""RowSet.moves builds one S_ij**2 table per level pair i < j: S_ji**2 is
its adjoint, stored as the same read-only arrays with src and dst swapped."""

import numpy as np
import pytest

import udspin.basis as basis_module
from udspin.basis import SymmetricBasis, _moves


def sorted_triples(src, dst, amp):
    order = np.lexsort((dst, src))
    return src[order], dst[order], amp[order]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [3, 7, 50, 51])
def test_adjoint_tables_equal_the_directly_built_ones(n, d):
    basis = SymmetricBasis(n, d)
    for code in range(2 ** (d - 1)):
        rows = basis.sector_rows([code >> k & 1 for k in range(d - 1)])
        for (i0, j0), table in rows.moves.items():
            assert not any(array.flags.writeable for array in table)  # shared by two tables
            src, dst, amp = _moves(rows.rows, i0, j0, 2)
            direct = sorted_triples(src, np.searchsorted(rows.ranks, dst), amp)
            for got, want in zip(sorted_triples(*table), direct):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_one_move_build_per_level_pair(d, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return _moves(*args)

    monkeypatch.setattr(basis_module, "_moves", counted)
    moves = SymmetricBasis(9, d).full_rows.moves
    assert len(moves) == d * (d - 1)
    assert sorted(calls) == [(i0, j0, 2) for i0 in range(d) for j0 in range(i0 + 1, d)]
