"""What the sweep block bound is for: the states a block holds, with the
Lanczos store of its solves, keep the default sweep's allocations small.

A warm default N = 50 sweep traces a peak of about 2.7 MiB in blocks of
_SWEEP_BLOCK_BYTES (2.2 MiB with one coupling per block, 2 MiB of it the
Lanczos store); one block for the whole grid traces about 10.6 MiB.
"""

import tracemalloc

from udspin.sweep import SweepConfig, run_sweep


def test_default_sweep_traced_peak_stays_under_4_mib():
    config = SweepConfig()
    run_sweep(config)  # the basis, sector and Hamiltonian pattern are cached after this
    tracemalloc.start()
    try:
        records = run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 242
    assert peak <= 4 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
