"""enumerate_occupations by stars and bars, against a brute-force list.

Oracle: every D-tuple of 0..N that sums to N, from itertools.product,
sorted in descending lexicographic order.  The enumeration must also
stay within twice the table it returns, so MAX_TABLE_BYTES bounds what
it allocates.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from udspin.basis import enumerate_occupations

CASES = [(n, d) for n in range(7) for d in range(1, 6)] + [(0, 1), (0, 7), (9, 1), (2, 12)]


def _brute_force(n, d):
    rows = [p for p in itertools.product(range(n + 1), repeat=d) if sum(p) == n]
    return np.array(sorted(rows, reverse=True), dtype=np.int64).reshape(-1, d)


@pytest.mark.parametrize("n, d", CASES)
def test_enumeration_equals_brute_force(n, d):
    got = enumerate_occupations(n, d)
    want = _brute_force(n, d)
    assert got.dtype == np.int64 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert got.flags.c_contiguous


def test_enumeration_allocates_under_twice_the_table():
    tracemalloc.start()
    try:
        table = enumerate_occupations(400, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (80601, 3)
    assert peak <= 2 * table.nbytes
