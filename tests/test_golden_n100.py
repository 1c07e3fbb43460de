"""The default N = 100 sweep keeps its bytes with two couplings to a stack.

tests/data/sweep_n100.csv was written by `udspin sweep --n 100` while each
coupling was solved on its own.  At N = 100 a sweep block holds two
couplings, so every block now solves them as one Lanczos stack.  The table
is written again with one worker and with two, and must match.
"""

from pathlib import Path

import pytest

import udspin.sweep as sweep
from udspin.basis import dimension
from udspin.cli import main

GOLDEN = Path(__file__).parent / "data" / "sweep_n100.csv"


def test_blocks_stack_two_couplings_at_n100():
    assert sweep._SWEEP_BLOCK_BYTES // (2 * 16 * dimension(100, 3)) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_default_n100_sweep_matches_the_committed_bytes(jobs, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "100", "--jobs", jobs, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN.read_bytes()
