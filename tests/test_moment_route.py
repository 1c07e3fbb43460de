"""Moment tables on one parity sector: summed without BLAS, routed once.

Oracles: the raw bytes of expval_tables in this process against those of
a fresh interpreter run with OPENBLAS_NUM_THREADS=1, at N = 400, where a
threaded zdotc splits its sum across threads; and a count of the route
choices: none for solver and cat states, once for a hand-built state.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udspin
from udspin.basis import SymmetricBasis, SymmetricState, expval_tables, shared_basis
from udspin.lmg import LmgParams, ground_state, variational_cat
from udspin.rdm import level_populations
from udspin.sweep import SweepConfig, run_sweep

_DIGESTS = """
import hashlib, json
from udspin.basis import expval_tables, shared_basis
from udspin.lmg import LmgParams, ground_state, variational_cat

out = {}
for lam in (3.0, 4.0):
    params = LmgParams(n_particles=400, lam=lam)
    for kind, state in (
        ("ground", ground_state(params).state),
        ("cat", variational_cat(shared_basis(400, 3), params)),
    ):
        S, Q = expval_tables(state)
        out[f"{kind} {lam}"] = hashlib.sha256(S.tobytes() + Q.tobytes()).hexdigest()
print(json.dumps(out))
"""


def test_moment_tables_do_not_depend_on_blas_threads():
    here = {}
    exec(_DIGESTS.replace("print(json.dumps(out))", "here.update(out)"), {"here": here})
    src = str(Path(udspin.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _DIGESTS], env=env, check=True, capture_output=True, text=True
    )
    single = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(here) == sorted(single) and len(here) == 4
    assert here == single


# ---------------------------------------------------------------------------
# one route choice per state


@pytest.fixture
def route_calls(monkeypatch):
    calls = []
    real = SymmetricBasis.state_sector

    def counting(self, coeffs):
        calls.append(coeffs.size)
        return real(self, coeffs)

    monkeypatch.setattr(SymmetricBasis, "state_sector", counting)
    return calls


def test_sweep_row_chooses_its_route_once(route_calls):
    run_sweep(SweepConfig(n_particles=23, lambdas=(0.0, 1.0, 2.0)))
    assert len(route_calls) == 0  # solver and cat states come with the sector they were built on


def test_route_is_chosen_once_per_state(route_calls):
    state = ground_state(LmgParams(n_particles=12, lam=1.2)).state
    tables = expval_tables(state)
    pops = [level_populations(state, i) for i in (1, 2, 3)]
    assert len(route_calls) == 0  # the solver recorded its sector
    again = SymmetricState(state.basis, state.coeffs)  # a new state chooses afresh
    for got, want in zip(expval_tables(again), tables):
        assert got.tobytes() == want.tobytes()
    assert all(level_populations(again, i).tobytes() == p.tobytes() for i, p in zip((1, 2, 3), pops))
    assert len(route_calls) == 1


def test_coefficients_are_read_only_and_owned():
    basis = shared_basis(6, 3)
    c = np.zeros(basis.dim, dtype=np.complex128)
    c[0] = 1.0
    state = SymmetricState(basis, c)
    assert not state.coeffs.flags.writeable
    with pytest.raises(ValueError):
        state.coeffs[0] = 0.0
    before = expval_tables(state)
    c[0], c[3] = 0.0, 1.0  # the caller's array is not the state's
    assert state.coeffs[0] == 1.0
    for got, want in zip(expval_tables(state), before):
        np.testing.assert_array_equal(got, want)
    assert c.flags.writeable


def test_read_only_coefficients_are_shared_not_copied():
    state = ground_state(LmgParams(n_particles=10, lam=0.8)).state
    assert np.shares_memory(SymmetricState(state.basis, state.coeffs).coeffs, state.coeffs)


def test_reassigned_coefficients_choose_a_new_route():
    basis = shared_basis(6, 3)
    state = SymmetricState(basis, np.eye(basis.dim)[0])
    assert expval_tables(state)[0][0, 0] == 6.0
    state.coeffs = SymmetricState(basis, np.eye(basis.dim)[basis.dim - 1]).coeffs
    assert expval_tables(state)[0][2, 2] == 6.0
