"""Surfaces from closed-form moment tables, batched over the whole grid.

Oracles: the moment tables of the state vector built at seed-chosen grid
nodes (expval_tables of dcat/dscs, and level_populations for the dscs
level entropies); one-orbital table calls against the same orbitals
stacked; and the surface values of this process against those of a
fresh interpreter run with OPENBLAS_NUM_THREADS=1.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import udspin
from udspin import sweep
from udspin.basis import SymmetricBasis, expval_tables, shared_basis
from udspin.errors import IntegrityError
from udspin.rdm import (
    entropies,
    level_populations,
    one_qudit_rdm_from_tables,
    spectrum_entropies,
    two_qudit_rdm_from_tables,
)
from udspin.squeezing import squeezing_report_from_tables
from udspin.states import dcat, dcat_expval_tables, dscs, dscs_expval_tables
from udspin.sweep import SurfaceConfig, surface_table

MOMENT_OBSERVABLES = ("one_atom", "two_atom", "squeezing_total")
ENTROPY_OBSERVABLES = ("level_entropy_1", "level_entropy_2", "level_entropy_3", "one_atom", "two_atom")
STATE_OF = {"dscs": dscs, "dcat": dcat}


def _state_route(state, observable: str, n: int) -> float:
    """The observable from the moments of an explicitly built state vector."""
    if observable.startswith("level_entropy"):
        populations = level_populations(state, int(observable[-1]))
        return spectrum_entropies(populations, "level", n, 3).linear
    S, Q = expval_tables(state)
    if observable == "one_atom":
        return entropies(one_qudit_rdm_from_tables(S, n), "one_atom", n, 3).linear
    if observable == "two_atom":
        return entropies(two_qudit_rdm_from_tables(S, Q, n), "two_atom", n, 3).linear
    return squeezing_report_from_tables(Q, n).total


def _sampled_nodes(seed: int, count: int = 41, picks: int = 6) -> list:
    rng = np.random.default_rng(seed)
    return [(0, 0)] + [tuple(rng.integers(0, count, size=2)) for _ in range(picks)]


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize("kind", ["dscs", "dcat"])
@pytest.mark.parametrize("observable", MOMENT_OBSERVABLES)
def test_moment_surface_matches_state_route(observable, kind, n):
    config = SurfaceConfig(n_particles=n, kind=kind, observable=observable)
    rows = surface_table(config)
    basis = shared_basis(n, 3)
    for ia, ib in _sampled_nodes(n * 7 + len(observable)):
        a, b, value = rows[ia * config.b_count + ib]
        want = _state_route(STATE_OF[kind](basis, (1.0, a, b)), observable, n)
        assert abs(value - want) <= 1e-12, (a, b, value, want)


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_dscs_level_surface_matches_populations(level, n):
    config = SurfaceConfig(n_particles=n, kind="dscs", observable=f"level_entropy_{level}")
    rows = surface_table(config)
    basis = shared_basis(n, 3)
    for ia, ib in _sampled_nodes(n * 3 + level):
        a, b, value = rows[ia * config.b_count + ib]
        want = _state_route(dscs(basis, (1.0, a, b)), config.observable, n)
        assert abs(value - want) <= 1e-12, (a, b, value, want)


@pytest.mark.parametrize("kind", ["dscs", "dcat"])
@pytest.mark.parametrize("observable", ENTROPY_OBSERVABLES)
def test_origin_entropy_is_exactly_zero(observable, kind):
    config = SurfaceConfig(
        n_particles=100, kind=kind, observable=observable, a_count=2, b_count=2
    )
    assert surface_table(config)[0] == (0.0, 0.0, 0.0)


def test_value_takes_the_broadcast_shape_of_the_grid():
    config = SurfaceConfig(n_particles=10, kind="dcat", observable="two_atom").validated()
    a = np.array([0.0, 0.5, 1.5])
    b = np.array([0.25, 1.0])
    grid = sweep._surface_value(config, a[:, None], b[None, :])
    assert grid.shape == (3, 2)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            assert grid[i, j] == sweep._surface_value(config, ai, bj)


@pytest.mark.parametrize("n", [1, 2, 7, 100])
@pytest.mark.parametrize("tables", [dscs_expval_tables, dcat_expval_tables])
def test_stacked_tables_equal_one_orbital_calls(tables, n):
    rng = np.random.default_rng(n)
    for d in (2, 3, 4):
        stack = rng.normal(size=(2, 3, d)) + 1j * rng.normal(size=(2, 3, d))
        stack[..., 0] = 1.0 + rng.random((2, 3))
        S, Q = tables(stack, n)
        assert S.shape == (2, 3, d, d) and Q.shape == (2, 3, d, d, d, d)
        for index in np.ndindex(2, 3):
            S_one, Q_one = tables(stack[index], n)
            assert S_one.tobytes() == S[index].tobytes()
            assert Q_one.tobytes() == Q[index].tobytes()


def test_stacked_cat_tables_refuse_a_zero_reference_level():
    with pytest.raises(ValueError, match="level-1 amplitude is zero"):
        dcat_expval_tables([[1.0, 0.5, 0.2], [0.0, 1.0, 0.5]], 4)


_SURFACE_HEX = """
import json
from udspin.sweep import SurfaceConfig, surface_table

config = SurfaceConfig(n_particles=400, kind="dscs", observable="two_atom", a_count=9, b_count=9)
print(json.dumps([value.hex() for _, _, value in surface_table(config)]))
"""


def test_dscs_surface_does_not_depend_on_blas_threads():
    here = {}
    exec(_SURFACE_HEX.replace("print(", "here['out'] = ("), {"here": here})
    src = str(Path(udspin.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SURFACE_HEX], env=env, check=True, capture_output=True, text=True
    )
    single = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(single) == 81
    assert json.loads(here["out"]) == single


@pytest.mark.parametrize("observable", ["two_atom", "squeezing_total", "level_entropy_2"])
@pytest.mark.parametrize("block", [1, 5])
def test_values_do_not_depend_on_the_block_size(block, observable, monkeypatch):
    config = SurfaceConfig(n_particles=12, kind="dcat", observable=observable, a_count=4, b_count=6)
    default = surface_table(config)
    monkeypatch.setattr(sweep, "_SURFACE_BLOCK", block)
    assert surface_table(config) == default


def test_non_finite_matrix_gets_a_nan_spectrum_of_its_own():
    rho = np.stack([np.eye(3) / 3.0, np.full((3, 3), np.nan), np.diag([1.0, 0.0, 0.0])])
    w = sweep._spectra(rho)
    assert np.isnan(w[1]).all()
    assert w[0].tobytes() == np.linalg.eigvalsh(rho[0]).tobytes()
    assert w[2].tobytes() == np.linalg.eigvalsh(rho[2]).tobytes()


def test_failing_batched_node_names_itself(monkeypatch):
    real = sweep.dscs_expval_tables

    def nan_at_third_node(z, n):  # NaN tables, so a NaN spectrum, at (a, b) = (2.0, 0.0)
        S, Q = real(z, n)
        third = (z[..., 1] == 2.0) & (z[..., 2] == 0.0)
        S[third], Q[third] = np.nan, np.nan
        return S, Q

    monkeypatch.setattr(sweep, "dscs_expval_tables", nan_at_third_node)
    config = SurfaceConfig(n_particles=10, kind="dscs", observable="two_atom", a_count=2, b_count=2)
    with pytest.raises(IntegrityError, match="non-finite") as caught:
        surface_table(config)
    assert str(caught.value).startswith(
        "N=10, kind=dscs, observable=two_atom, (a, b)=(2.0, 0.0): reduced-density"
    )
    assert isinstance(caught.value.__cause__, IntegrityError)


def test_failing_state_node_names_itself(monkeypatch):
    real = sweep.level_weights
    monkeypatch.setattr(sweep, "level_weights", lambda *args, **kw: real(*args, **kw) * math.nan)
    config = SurfaceConfig(n_particles=6, kind="dcat", observable="level_entropy_2", a_count=2, b_count=2)
    with pytest.raises(IntegrityError, match="eigenvalue: non-finite") as caught:
        surface_table(config)
    assert str(caught.value).startswith("N=6, kind=dcat, observable=level_entropy_2, (a, b)=(0.0, 0.0): ")
    assert type(caught.value.__cause__) is IntegrityError


def test_cat_with_empty_levels_does_not_overflow():
    # the rows that occupy a level with z_i = 0 have log-weights past exp's range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state = dcat(SymmetricBasis(1300, 3), (1.0, 0.0, 0.0))
    assert state.coeffs[0] == 1.0
    assert np.count_nonzero(state.coeffs) == 1
