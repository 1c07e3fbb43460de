"""Surfaces evaluated as one array pass per block of nodes.

Oracles: a per-node route built here from the scalar functions
(spectrum_entropies on one eigvalsh spectrum, squeezing_report_from_tables
on one table, energy_surface on one node, dscs_level_weights on one weight
pair), which every surface but the cat level entropies matches in bytes;
level_populations of the cat state vector, which the closed-form cat level
weights match within 1e-12; and spectrum_entropies row by row, which the
batched linear entropies match in bytes.
"""

import math

import numpy as np
import pytest

from udspin import lmg, states, sweep
from udspin.basis import shared_basis
from udspin.cli import main
from udspin.errors import ConfigError, IntegrityError, check_range, check_ranges
from udspin.lmg import LmgParams, energy_surface
from udspin.rdm import (
    dscs_level_weights,
    level_populations,
    level_weights,
    linear_entropies,
    one_qudit_rdm_from_tables,
    spectrum_entropies,
    two_qudit_rdm_from_tables,
)
from udspin.squeezing import squeezing_report_from_tables
from udspin.states import dcat, dcat_expval_tables, dscs_expval_tables
from udspin.sweep import SURFACE_OBSERVABLES, SurfaceConfig, surface_table

LEVELS = ("level_entropy_1", "level_entropy_2", "level_entropy_3")
TABLES = {"dscs": dscs_expval_tables, "dcat": dcat_expval_tables}
# 13 x 11 nodes: three blocks of 64, the origin among them
GRID = dict(a_max=2.5, a_count=13, b_max=2.2, b_count=11)


def _node_oracle(config: SurfaceConfig, a: float, b: float) -> float:
    """The observable at one node through the scalar functions."""
    n, observable = config.n_particles, config.observable
    if observable == "energy":
        return energy_surface(a, b, LmgParams(n_particles=n, epsilon=config.epsilon, lam=config.lam))
    if observable in LEVELS:  # dscs only: the level's weight x and the others' y
        if config.coords == "xy":
            x, y = a, b
        else:
            squares = [1.0, a * a, b * b]
            x = squares.pop(int(observable[-1]) - 1)
            y = squares[0] + squares[1]
        if x + y == 0.0:
            return 0.0
        return spectrum_entropies(dscs_level_weights(n, x, y), "level", n, 3).linear
    S, Q = TABLES[config.kind]([1.0, a, b], n)
    if observable == "squeezing_total":
        return squeezing_report_from_tables(Q, n).total
    if observable == "one_atom":
        rho = one_qudit_rdm_from_tables(S, n)
    else:
        rho = two_qudit_rdm_from_tables(S, Q, n)
    return spectrum_entropies(np.linalg.eigvalsh(rho), observable, n, 3).linear


def _assert_matches_oracle(config: SurfaceConfig) -> None:
    for a, b, value in surface_table(config):
        want = _node_oracle(config, a, b)
        assert value.hex() == float(want).hex(), (a, b, value, want)


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize(
    "kind, observable",  # the cat level weights have no scalar route: see below
    [(k, o) for k in ("dscs", "dcat") for o in SURFACE_OBSERVABLES if k == "dscs" or o not in LEVELS],
)
def test_surface_equals_the_per_node_route_in_bytes(observable, kind, n):
    _assert_matches_oracle(SurfaceConfig(n_particles=n, kind=kind, observable=observable, **GRID))


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize("observable", LEVELS)
def test_xy_surface_equals_the_per_node_route_in_bytes(observable, n):
    config = SurfaceConfig(n_particles=n, kind="dscs", coords="xy", observable=observable, **GRID)
    _assert_matches_oracle(config)


def _cat_orbitals(seed: int, count: int = 25) -> np.ndarray:
    rng = np.random.default_rng(seed)
    moduli = rng.uniform(0.0, 2.5, size=(count, 2))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(count, 2)))
    z = np.ones((count, 3), dtype=np.complex128)
    z[:, 1:] = moduli * phases
    z[0] = (1.0, 0.0, 0.0)  # the origin
    return z


def _far_cat_orbitals(seed: int) -> np.ndarray:
    """Moduli out to 1e6 on both axes: at odd N the even projection of
    (1, a, 0) has a squared norm near 2N/a^2, so sign-pattern sums cancel."""
    moduli = np.array([0.0, 0.7, 3.0, 1e2, 1e4, 1e5, 1e6])
    a, b = (m.ravel() for m in np.meshgrid(moduli, moduli, indexing="ij"))
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (a.size, 2)))
    return np.column_stack([np.ones(a.size), a * phases[:, 0], b * phases[:, 1]])


@pytest.mark.parametrize(
    "n, z",
    [(n, _cat_orbitals(n)) for n in (3, 10, 11, 100, 101, 400)]
    + [(n, _far_cat_orbitals(n)) for n in (10, 11, 100, 101, 400)],
)
def test_cat_level_weights_match_the_state_vector(n, z):
    basis = shared_basis(n, 3)
    occupation = n - np.arange(n + 1)  # entry j of the weights is occupation N - j
    for level in (1, 2, 3):
        stacked = level_weights(np.abs(z) ** 2, level, n, cat=True)
        for k, orbital in enumerate(z):
            want = level_populations(dcat(basis, orbital), level)[occupation]
            assert np.max(np.abs(stacked[k] - want)) <= 1e-12, (n, level, orbital)
            # level 1 holds N minus an even count; levels 2 and 3 hold even counts
            forbidden = (n - occupation) % 2 == 1 if level == 1 else occupation % 2 == 1
            assert (stacked[k][forbidden] == 0.0).all()
        assert np.count_nonzero(stacked[0]) == 1 and 1.0 in stacked[0]
        assert linear_entropies(stacked[:1], "level", n, 3)[0] == 0.0


@pytest.mark.parametrize("observable", LEVELS)
def test_cat_level_surface_at_odd_n_and_far_nodes_matches_the_state_vector(observable, tmp_path):
    out = tmp_path / "s.csv"
    argv = ["surface", "--kind", "dcat", "--n", "11", "--observable", observable,
            "--a-max", "1e6", "--b-max", "1e6", "--a-count", "3", "--b-count", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    basis, level = shared_basis(11, 3), int(observable[-1])
    for row in np.loadtxt(out, delimiter=",", skiprows=1):
        populations = level_populations(dcat(basis, (1.0, row[0], row[1])), level)
        want = spectrum_entropies(populations, "level", 11, 3).linear
        assert row[2] == pytest.approx(want, abs=1e-11), row


@pytest.mark.parametrize("observable", LEVELS)
def test_cat_level_surface_origin_is_exactly_zero(observable):
    config = SurfaceConfig(n_particles=101, kind="dcat", observable=observable, a_count=2, b_count=2)
    assert surface_table(config)[0] == (0.0, 0.0, 0.0)


def test_no_surface_builds_a_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a surface built a state vector")

    for name in ("dscs", "dcat"):
        monkeypatch.setattr(states, name, refuse)
    monkeypatch.setattr(sweep, "level_populations", refuse)
    for kind in ("dscs", "dcat"):
        for observable in SURFACE_OBSERVABLES:
            surface_table(SurfaceConfig(n_particles=10, kind=kind, observable=observable, **GRID))


# 9 x 9 nodes on [0, 2]^2: node 70, (a, b) = (1.75, 1.75), is the 7th of the second block
FAIL_GRID = dict(a_max=2.0, a_count=9, b_max=2.0, b_count=9)
TARGET = 1.75


def _at_target(a, b):
    return (a == TARGET) & (b == TARGET)


def _nan_tables_at_target(monkeypatch, name):
    real = getattr(sweep, name)

    def tables(z, n):
        S, Q = real(z, n)
        hit = _at_target(z[..., 1], z[..., 2])
        S[hit], Q[hit] = np.nan, np.nan
        return S, Q

    monkeypatch.setattr(sweep, name, tables)


def _nan_level_weights_at_target(monkeypatch):
    real = sweep.level_weights

    def weights(x, *args, **kwargs):  # x: the squared orbitals (1, a^2, b^2)
        w = real(x, *args, **kwargs)
        w[_at_target(np.sqrt(x[..., 1]), np.sqrt(x[..., 2]))] = np.nan
        return w

    monkeypatch.setattr(sweep, "level_weights", weights)


def _nan_energy_at_target(monkeypatch):
    real = lmg._binary_scaled

    def scaled(z):
        out = real(z)
        out[_at_target(z[..., 1], z[..., 2])] = np.nan
        return out

    monkeypatch.setattr(lmg, "_binary_scaled", scaled)


@pytest.mark.parametrize(
    "kind, observable, inject, message",
    [
        ("dcat", "two_atom", lambda mp: _nan_tables_at_target(mp, "dcat_expval_tables"),
         "reduced-density-matrix eigenvalue: non-finite"),
        ("dscs", "one_atom", lambda mp: _nan_tables_at_target(mp, "dscs_expval_tables"),
         "reduced-density-matrix eigenvalue: non-finite"),
        ("dcat", "level_entropy_1", _nan_level_weights_at_target,
         "reduced-density-matrix eigenvalue: non-finite"),
        ("dscs", "squeezing_total", lambda mp: _nan_tables_at_target(mp, "dscs_expval_tables"),
         "pair squeezing parameter: non-finite"),
        ("dcat", "energy", _nan_energy_at_target, "mean-field energy: non-finite"),
    ],
)
def test_failing_node_past_the_first_block_names_itself(kind, observable, inject, message, monkeypatch):
    inject(monkeypatch)
    config = SurfaceConfig(n_particles=10, kind=kind, observable=observable, **FAIL_GRID)
    with pytest.raises(IntegrityError) as caught:
        surface_table(config)
    where = f"N=10, kind={kind}, observable={observable}, (a, b)=({TARGET!r}, {TARGET!r}): "
    assert str(caught.value).startswith(where + message)
    assert type(caught.value.__cause__) is IntegrityError
    assert str(caught.value.__cause__).startswith(message)


def _spectra_stack(seed: int, dim: int, rows: int = 40) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.random((rows, dim)) ** 3
    w /= w.sum(axis=-1, keepdims=True)
    w[1] = 0.0
    w[1, -1] = 1.0  # a pure state
    w[2, : dim // 2] = 0.0  # entries the von Neumann sum drops
    w[2] /= w[2].sum()
    w[3, 0] = -5e-9  # roundoff negatives within 1e-8 snap to 0
    w[4] = 0.0
    w[4, 0], w[4, 1] = 1.0 + 1e-12, -1e-12  # a linear entropy a hair below 0
    return w


@pytest.mark.parametrize("kind, n, dim", [("one_atom", 7, 3), ("two_atom", 7, 9),
                                          ("level", 10, 11), ("level", 100, 101),
                                          ("level", 400, 401)])
def test_batched_rows_equal_spectrum_entropies_in_bytes(kind, n, dim):
    w = _spectra_stack(dim, dim)
    got = linear_entropies(w, kind, n, 3)
    assert got.shape == (w.shape[0],)
    for row, value in zip(w, got):
        assert value.hex() == float(spectrum_entropies(row, kind, n, 3).linear).hex()
    assert got[1] == 0.0 and got[4] == 0.0


@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "reduced-density-matrix eigenvalue: non-finite"),
        (-2e-8, "reduced-density-matrix eigenvalue: .* outside"),
    ],
)
def test_batched_rows_raise_the_error_of_spectrum_entropies(bad, message):
    w = _spectra_stack(3, 9)
    w[17, 3] = bad
    with pytest.raises(IntegrityError, match=message) as caught:
        linear_entropies(w, "two_atom", 7, 3)
    with pytest.raises(IntegrityError) as single:
        spectrum_entropies(w[17], "two_atom", 7, 3)
    assert str(caught.value) == str(single.value)


@pytest.mark.parametrize("kind, tol", [("unit", 1e-9), ("nonneg", 0.0), (None, 0.0)])
def test_check_ranges_is_check_range_elementwise(kind, tol):
    values = np.array([[0.0, 0.5, -5e-10, 1.0], [-0.0, 0.25, 1.0 + 5e-10, 3.0]])
    if kind == "unit":
        values[1, 3] = 0.75
    if kind == "nonneg":
        values[0, 2] = values[1, 2] = 0.125
    got = check_ranges(values, kind, "value", tol)
    want = [check_range(v, kind, "value", tol) for v in values.ravel().tolist()]
    assert [v.hex() for v in got.ravel().tolist()] == [float(v).hex() for v in want]
    assert check_ranges(np.float64(0.5), kind, "value", tol) == 0.5
    values[1, 1], values[1, 3] = math.inf, math.nan  # the first bad value, in row-major order, raises
    with pytest.raises(IntegrityError, match="value: non-finite value inf"):
        check_ranges(values, kind, "value", tol)


@pytest.mark.parametrize("observable", SURFACE_OBSERVABLES)
@pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "-0.5"])
def test_surface_refuses_a_bad_coupling(lam, observable, tmp_path, capsys):
    with pytest.raises(ConfigError, match="lam must be finite and >= 0"):
        SurfaceConfig(observable=observable, lam=float(lam)).validated()
    argv = ["surface", "--observable", observable, f"--lam={lam}", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    assert "lam must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
