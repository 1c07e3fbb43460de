"""Sweeps in blocks of couplings: one array pass per observable over the
block's states gives, bit for bit, what one call per row gives.

The per-row oracle below is the route sweeps took before blocks: per row a
solve or a cat state, one-state moment tables and level populations, one
eigvalsh per reduced density matrix and one squeezing report per table.
"""

import math
import struct

import numpy as np
import pytest

import udspin.sweep as sweep
from udspin.basis import expval_tables, shared_basis
from udspin.errors import IntegrityError
from udspin.lmg import (
    LmgParams,
    ground_state,
    stationary_point,
    variational_cat,
    variational_energy,
)
from udspin.rdm import (
    entropies,
    level_populations,
    one_qudit_rdm_from_tables,
    spectrum_entropies,
    two_qudit_rdm_from_tables,
)
from udspin.squeezing import squeezing_report_from_tables
from udspin.states import dscs
from udspin.sweep import (
    SWEEP_OBSERVABLES,
    SweepConfig,
    SweepRecord,
    default_lambda_grid,
    render_records,
    run_sweep,
)

SOURCE_SETS = [("numerical",), ("variational",), ("numerical", "variational")]
OBSERVABLE_SETS = [
    SWEEP_OBSERVABLES,
    ("energy",),
    ("level_entropy_2", "squeezing_pairs"),
    ("one_atom", "two_atom"),
    ("level_entropy_1", "level_entropy_3", "squeezing_total", "energy"),
]


def oracle_record(config: SweepConfig, lam: float, source: str) -> SweepRecord:
    """One (coupling, source) row, one call per observable."""
    n, d = config.n_particles, 3
    params = LmgParams(n_particles=n, epsilon=config.epsilon, lam=lam)
    point = stationary_point(params)
    want = set(config.observables)
    if source == "variational":
        state = variational_cat(shared_basis(n, d), params)
        energy = variational_energy(state, params)
    else:
        result = ground_state(params)
        state, energy = result.state, result.energy
    S, Q = expval_tables(state)
    values = {"alpha0": point.alpha0, "beta0": point.beta0}
    if "energy" in want:
        values["energy"] = energy
    for i in (1, 2, 3):
        if f"level_entropy_{i}" in want:
            pops = level_populations(state, i)
            values[f"L_level_{i}"] = spectrum_entropies(pops, "level", n, d).linear
    if "one_atom" in want:
        values["L1_atom"] = entropies(one_qudit_rdm_from_tables(S, n), "one_atom", n, d).linear
    if "two_atom" in want:
        values["L2_atom"] = entropies(two_qudit_rdm_from_tables(S, Q, n), "two_atom", n, d).linear
    report = squeezing_report_from_tables(Q, n)
    if "squeezing_total" in want:
        values["xi2_total"] = report.total
    if "squeezing_pairs" in want:
        for i, j in ((2, 1), (3, 1), (3, 2)):
            values[f"xi2_{i}{j}"] = report.pairwise[(i, j)]
    return SweepRecord(lam=lam, source=source, **values)


def bits(record: SweepRecord) -> tuple:
    """Every field, floats as their eight bytes."""
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else value
        for value in (getattr(record, name) for name in sweep._RECORD_FIELDS)
    )


def assert_rows_match_the_oracle(config: SweepConfig) -> None:
    records = run_sweep(config)
    cfg = config.validated()
    expected = [oracle_record(cfg, lam, source) for lam in cfg.lambdas for source in cfg.sources]
    assert [(r.lam, r.source) for r in records] == [(r.lam, r.source) for r in expected]
    for got, want in zip(records, expected):
        assert bits(got) == bits(want), (got, want)


@pytest.mark.parametrize("observables", OBSERVABLE_SETS)
@pytest.mark.parametrize("sources", SOURCE_SETS)
@pytest.mark.parametrize("n, epsilon", [(3, 1.0), (4, 0.8), (9, 1.0), (50, 1.0), (51, 1.3)])
def test_every_field_equals_the_per_row_oracle(n, epsilon, sources, observables):
    config = SweepConfig(
        n_particles=n,
        epsilon=epsilon,
        lambdas=default_lambda_grid(epsilon)[::10],  # 13 couplings, both criticals
        sources=sources,
        observables=observables,
    )
    assert_rows_match_the_oracle(config)


def test_default_grid_at_n50_equals_the_per_row_oracle():
    assert_rows_match_the_oracle(SweepConfig(n_particles=50))


@pytest.mark.parametrize("sources", [("variational",), ("numerical", "variational")])
@pytest.mark.parametrize("n", [4, 51])
def test_bytes_do_not_depend_on_the_block_size(monkeypatch, n, sources):
    config = SweepConfig(n_particles=n, lambdas=default_lambda_grid()[::4], sources=sources)
    tables = []
    for bound in (1, sweep._SWEEP_BLOCK_BYTES, 2**40):  # one coupling per block ... one block
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", bound)
        records = run_sweep(config)
        tables.append((render_records(records, "csv"), render_records(records, "json")))
    assert tables[0] == tables[1] == tables[2]


# --------------------------------------------------------------------------
# a sequence of states gives the bytes of one call per state


def _assert_sequence_matches_single_calls(states) -> None:
    S, Q = expval_tables(states)
    assert S.shape == (len(states), 3, 3) and Q.shape == (len(states),) + (3,) * 4
    for k, state in enumerate(states):
        S1, Q1 = expval_tables(state)
        assert S[k].tobytes() == S1.tobytes()
        assert Q[k].tobytes() == Q1.tobytes()
    for i in (1, 2, 3):
        pops = level_populations(states, i)
        assert pops.shape == (len(states), states[0].basis.n_particles + 1)
        for k, state in enumerate(states):
            assert pops[k].tobytes() == level_populations(state, i).tobytes()


@pytest.mark.parametrize("n", [3, 9, 50, 51])
def test_even_sector_sequence(n):
    basis = shared_basis(n, 3)
    states = []
    for lam in (0.0, 0.5, 0.9, 1.5, 2.2, 4.0):
        params = LmgParams(n_particles=n, lam=lam)
        states += [ground_state(params).state, variational_cat(basis, params)]
    _assert_sequence_matches_single_calls(states)


@pytest.mark.parametrize("sector", [(1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("n", [4, 9, 50])
def test_other_parity_sector_sequence(n, sector):
    params = [LmgParams(n_particles=n, lam=lam) for lam in (0.3, 1.1, 2.5)]
    _assert_sequence_matches_single_calls([ground_state(p, sector=sector).state for p in params])


@pytest.mark.parametrize("n", [3, 9, 40])
def test_mixed_sector_sequences_on_the_gram_route(n):
    rng = np.random.default_rng(n)
    basis = shared_basis(n, 3)
    coherent = [dscs(basis, rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(4)]
    _assert_sequence_matches_single_calls(coherent)
    params = LmgParams(n_particles=n, lam=2.0)
    even, odd = ground_state(params).state, ground_state(params, sector=(1, 0)).state
    _assert_sequence_matches_single_calls([even, coherent[0], odd, even])


def test_an_empty_sequence_is_rejected():
    with pytest.raises(ValueError, match="at least one state"):
        expval_tables([])


# --------------------------------------------------------------------------
# a failure mid-block names its row


def test_failure_in_the_block_pass_names_its_row(monkeypatch):
    target, marked = 1.0, []
    real_cat, real_tables = sweep.variational_cat, sweep.expval_tables

    def cat(basis, params, *, lams):  # the block's cat pass: one entry per coupling
        cats = real_cat(basis, params, lams=lams)
        marked.extend(state for lam, state in zip(lams, cats) if lam == target)
        return cats

    def tables(states):
        S, Q = real_tables(states)
        Q = Q.copy()
        for k, state in enumerate(states):
            if any(np.array_equal(state.coeffs, bad.coeffs) for bad in marked):
                Q[k, 1, 0, 0, 1] = math.nan
        return S, Q

    monkeypatch.setattr(sweep, "variational_cat", cat)
    monkeypatch.setattr(sweep, "expval_tables", tables)
    config = SweepConfig(n_particles=9, lambdas=(0.0, 0.5, target, 2.0, 3.0))
    with pytest.raises(IntegrityError, match="non-finite") as info:
        run_sweep(config)
    message = str(info.value)
    assert message.startswith(f"N=9, lam={target!r}, source=variational: ")
    assert type(info.value.__cause__) is IntegrityError
    assert str(info.value.__cause__) in message


def test_failed_solve_mid_block_names_its_row(monkeypatch):
    target, real = 2.0, sweep.ground_state

    def solve(params, *args, lams):  # the block's stacked solve: one entry per coupling
        results = real(params, *args, lams=lams)
        return [
            ValueError("injected solver failure") if lam == target else result
            for lam, result in zip(lams, results)
        ]

    monkeypatch.setattr(sweep, "ground_state", solve)
    with pytest.raises(ValueError) as info:
        run_sweep(SweepConfig(n_particles=9, lambdas=(0.0, 1.0, target, 3.0)))
    assert str(info.value) == f"N=9, lam={target!r}, source=numerical: injected solver failure"
    assert str(info.value.__cause__) == "injected solver failure"
