"""The one Lanczos eigensolver path of ground_state and its residual check.

Oracles: np.linalg.eigvalsh of the dense full-space Hamiltonian (sliced
to a parity sector where one is asked for), the hand-computed one-state
sector, a deliberately perturbed eigenvector, and byte identity of a
Lanczos-path sweep across worker counts and BLAS thread settings.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udspin
import udspin.lmg as lmg
from udspin.basis import shared_basis
from udspin.cli import main
from udspin.errors import IntegrityError
from udspin.lmg import (
    LmgParams,
    build_hamiltonian,
    ground_state,
    parity_sector_indices,
)

SECTORS = [(0, 0), (1, 0), (0, 1), (1, 1)]
COUPLINGS = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0]


def test_dense_eig_limit_is_arpack_floor():
    assert type(lmg.DENSE_EIG_LIMIT) is int
    assert lmg.DENSE_EIG_LIMIT == 1


@pytest.mark.parametrize("n", [4, 9, 16, 30])
def test_energies_match_dense_full_space_oracle(n):
    basis = shared_basis(n, 3)
    for lam in COUPLINGS:
        params = LmgParams(n_particles=n, lam=lam)
        dense = build_hamiltonian(basis, params).toarray()
        full_min = np.linalg.eigvalsh(dense)[0]
        assert abs(ground_state(params, sector="full").energy - full_min) <= 1e-12
        sector_mins = []
        for parities in SECTORS:
            idx = parity_sector_indices(basis, parities)
            want = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])[0]
            got = ground_state(params, sector=parities).energy
            assert abs(got - want) <= 1e-12, (n, lam, parities, got - want)
            sector_mins.append(got)
        even = ground_state(params).energy
        assert even == ground_state(params, sector=(0, 0)).energy
        assert abs(min(sector_mins) - full_min) <= 1e-12


def test_one_state_sector_is_solved_directly():
    basis = shared_basis(3, 3)
    assert parity_sector_indices(basis, (1, 1)).size == 1
    result = ground_state(LmgParams(n_particles=3, lam=1.3), sector=(1, 1))
    assert result.energy == 0.0
    np.testing.assert_array_equal(result.parity_signature, [-1.0, -1.0, -1.0])
    assert abs(result.state.norm - 1.0) <= 1e-15


def test_perturbed_eigenvector_fails_residual_check(monkeypatch):
    real_eigsh = lmg.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **kwargs)
        vecs = vecs.copy()
        vecs[0, 0] += 1e-6
        return vals, vecs / np.linalg.norm(vecs)

    monkeypatch.setattr(lmg, "eigsh", perturbed)
    with pytest.raises(IntegrityError) as info:
        ground_state(LmgParams(n_particles=9, lam=1.25))
    message = str(info.value)
    assert "residual" in message
    assert "N=9" in message
    assert "lam=1.25" in message
    assert "even" in message


def test_lanczos_sweep_is_byte_identical_across_jobs_and_blas_threads(tmp_path, capsys):
    # N = 50: the 351-state even sector goes through eigsh like every sector
    args = ["sweep", "--n", "50", "--lambdas", "0,1,2,3,4,5,6"]
    serial, parallel, single = (tmp_path / f"{name}.csv" for name in ("j1", "j2", "blas1"))
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    capsys.readouterr()
    src = str(Path(udspin.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from udspin.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run(
        [sys.executable, "-c", code, *args, "--out", str(single)],
        env=env,
        check=True,
        capture_output=True,
    )
    first = serial.read_bytes()
    assert parallel.read_bytes() == first
    assert single.read_bytes() == first
