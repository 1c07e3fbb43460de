"""Sweep tables stay byte-identical.

Each CSV under tests/data was written by `udspin sweep` with the arguments
listed here, before sweeps computed their observables in blocks of
couplings.  Every file is written again with one worker and with two, and
must match the committed bytes.
"""

from pathlib import Path

import pytest

from udspin.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "sweep_n50.csv": ["--n", "50"],
    "sweep_n51_eps1.3.csv": ["--n", "51", "--epsilon", "1.3"],
    "sweep_n400.csv": ["--n", "400", "--lambdas", "0,1,2,3,4,5,6"],
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_table_matches_the_committed_bytes(name, jobs, tmp_path, capsys):
    out = tmp_path / name
    assert main(["sweep", *GOLDEN[name], "--jobs", jobs, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / name).read_bytes()
