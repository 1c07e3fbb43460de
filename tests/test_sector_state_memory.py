"""What a sweep's states hold: their sector coefficients, not a full-space
vector per state.

At N = 400 the symmetric space has 80,601 rows and the even sector 20,301.
A full-space complex vector is 1.29 MB, the even-sector eigenvector as real
floats 0.16 MB.  A warm one-coupling sweep at N = 400 traced a peak of
5.05 MiB when its ground state and cat each built a full-space vector, and
traces 4.03 MiB with both held on the sector (the Lanczos store is 2.17 MiB
of it).  The 4.5 MiB bound leaves 0.47 MiB above today's peak and fails by
0.55 MiB once a state builds its full-space vector again.
"""

import tracemalloc

import pytest

from udspin.sweep import SweepConfig, run_sweep


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_one_coupling_sweep_at_n400_traces_under_4_5_mib(lam):
    config = SweepConfig(n_particles=400, lambdas=(lam,))
    run_sweep(config)  # the basis, sector and Hamiltonian pattern are cached after this
    tracemalloc.start()
    try:
        records = run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 2
    assert peak <= 4.5 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
