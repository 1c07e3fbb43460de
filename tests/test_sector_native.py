"""Parity sectors enumerated on their own, and states that carry their sector.

Oracles: each sector's rows and ranks against the parity-code slice of the
full occupation table; the attributes a basis holds after a sweep or a
parity-sector solve (no full table, no parity codes, no full RowSet); the
bytes of single ground_state calls beside a stack whose one pair misses the
residual gate; and the CLI, with RuntimeWarning as an error, on orbitals
whose squares or rescaling overflow.
"""

import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import udspin
import udspin.lmg as lmg
from udspin.basis import SymmetricBasis, expval_tables, shared_basis
from udspin.errors import CapacityError, IntegrityError
from udspin.lmg import LmgParams, ground_state
from udspin.sweep import SweepConfig, run_sweep

SRC = str(Path(udspin.__file__).resolve().parents[1])
FULL_TABLE = ("occupations", "parity_codes", "full_rows")


# ---------------------------------------------------------------------------
# sector enumeration


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50, 51])
def test_sector_rows_are_the_parity_code_slice(n, d):
    fresh = SymmetricBasis(n, d)
    sectors = {key: fresh.sector_rows(key) for key in product((0, 1), repeat=d - 1)}
    assert not set(FULL_TABLE) & set(vars(fresh))
    basis = SymmetricBasis(n, d)  # a second basis builds the table
    total = 0
    for key, sector in sectors.items():
        ranks = np.flatnonzero(basis.parity_codes == sum(p << k for k, p in enumerate(key)))
        assert sector.ranks.dtype == np.int64 and sector.rows.dtype == np.int64
        np.testing.assert_array_equal(sector.ranks, ranks)
        np.testing.assert_array_equal(sector.rows, basis.occupations[ranks].reshape(-1, d))
        assert (sector.rows.sum(axis=1) == n).all()
        total += ranks.size
    assert total == basis.dim
    if n == 1:  # one particle fills at most one odd level
        assert sum(sector.ranks.size == 0 for sector in sectors.values()) == 2 ** (d - 1) - d


@pytest.mark.parametrize("n, d", [(2**20, 4), (100, 6)])
def test_capacity_is_checked_at_construction(n, d):
    with pytest.raises(CapacityError, match="occupation table"):
        SymmetricBasis(n, d)


# ---------------------------------------------------------------------------
# no full table on the solve path


def test_sweep_builds_no_full_table():
    config = SweepConfig(n_particles=33, lambdas=(0.0, 0.7, 1.2, 2.0), jobs=1)
    assert len(run_sweep(config)) == 8
    assert not set(FULL_TABLE) & set(vars(shared_basis(33, 3)))


@pytest.mark.parametrize("sector", [(0, 0), (1, 0)])
def test_parity_sector_solve_builds_no_full_table(sector):
    result = ground_state(LmgParams(n_particles=39, lam=1.1), sector)
    basis = result.state.basis
    assert not set(FULL_TABLE) & set(vars(basis))
    assert result.state._sector == (result.state.coeffs, basis.sector_rows(sector))


def test_full_sector_builds_the_table_and_solves():
    params = LmgParams(n_particles=29, lam=0.3)  # phase I: the ground state is even
    even = ground_state(params)
    assert not set(FULL_TABLE) & set(vars(even.state.basis))
    full = ground_state(params, "full")
    assert {"occupations", "full_rows"} <= set(vars(full.state.basis))
    assert abs(full.energy - even.energy) <= 1e-10
    np.testing.assert_allclose(full.parity_signature, even.parity_signature, atol=1e-10)
    assert full.state._sector is None  # a full-space vector is searched for its sector
    for got, want in zip(expval_tables(full.state), expval_tables(even.state)):
        np.testing.assert_allclose(got, want, atol=1e-8)
    assert "parity_codes" in vars(full.state.basis)


# ---------------------------------------------------------------------------
# a residual failure inside a stack


def test_residual_failure_in_a_stack_fails_only_its_row(monkeypatch):
    real = lmg.eigsh

    def perturbed(ham, **kwargs):  # spoils the second pair of a stacked call
        pairs = real(ham, **kwargs)
        if isinstance(ham, list):
            energy, vec = pairs[1]
            vec = vec.copy()
            vec[0, 0] += 1e-6
            pairs[1] = (energy, vec / np.linalg.norm(vec))
        return pairs

    monkeypatch.setattr(lmg, "eigsh", perturbed)
    params = LmgParams(n_particles=9, lam=0.0)
    lams = (0.0, 1.0, 2.0, 3.0)
    results = ground_state(params, lams=lams)
    assert isinstance(results[1], IntegrityError)
    assert str(results[1]).startswith("eigenpair residual ")
    for k in (0, 2, 3):
        want = ground_state(replace(params, lam=lams[k]))
        assert np.float64(results[k].energy).tobytes() == np.float64(want.energy).tobytes()
        assert results[k].state.coeffs.tobytes() == want.state.coeffs.tobytes()
        assert results[k].parity_signature.tobytes() == want.parity_signature.tobytes()


# ---------------------------------------------------------------------------
# orbitals past the float range


def _state_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "udspin", "state", *argv],
        env=env, capture_output=True, text=True, check=False,
    )


@pytest.mark.parametrize("kind", ["dscs", "dcat"])
def test_a_huge_orbital_makes_its_state(kind):
    done = _state_cli("--kind", kind, "--n", "4", "--z", "1,1e200,0")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "two atoms: purity=1 linear=0 " in done.stdout


@pytest.mark.parametrize(
    "n, z, message",
    [
        ("5", "1e-320,1,1", "bad --z for dcat: level-1 amplitude is too small"),
        ("5", "1,1e200,0", "even-parity projection annihilated the state"),  # weight ~1e-400
    ],
    ids=["tiny-pivot", "odd-n-huge-orbital"],
)
def test_a_dcat_past_the_float_range_is_refused_by_name(n, z, message):
    done = _state_cli("--kind", "dcat", "--n", n, "--z", z)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"error: {message}")
    assert "Warning" not in done.stderr
