"""A block's solves finished row-wise, and the sweep's Rayleigh-Ritz check.

ground_state(params, lams=...) checks the residual, fixes the sign and reads
the parity signature of each pair in its one results loop; each result must
have the bytes of the one-coupling call.  lmg.eigsh grows its coefficient arrays
with the steps taken, not the step cap.  When a sweep runs both sources,
each cat's energy must lie at or above its coupling's numerical ground
energy, less the eigensolver's residual tolerance.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import udspin.lmg as lmg
import udspin.sweep as sweep
from udspin.errors import IntegrityError
from udspin.lmg import LmgParams, ground_state
from udspin.sweep import SweepConfig, default_lambda_grid, run_sweep

# ---------------------------------------------------------------------------
# ground_state of a block


CASES = [(n, sector) for n in (3, 9, 50, 51) for sector in ("even", (1, 0), (1, 1))]


@pytest.mark.parametrize("n, sector", CASES + [(3, "full"), (9, "full")])
def test_block_results_have_the_bytes_of_single_calls(n, sector):
    params = LmgParams(n_particles=n, epsilon=1.3, lam=0.0)
    lams = default_lambda_grid(1.3)[::12]
    results = ground_state(params, sector, lams=lams)
    assert len(results) == len(lams)
    for lam, got in zip(lams, results):
        want = ground_state(replace(params, lam=lam), sector)
        assert np.float64(got.energy).tobytes() == np.float64(want.energy).tobytes()
        assert got.state.coeffs.tobytes() == want.state.coeffs.tobytes()
        assert got.parity_signature.tobytes() == want.parity_signature.tobytes()


def test_block_with_failing_rows_finishes_the_others(monkeypatch):
    real = lmg._hamiltonian

    def poisoned(params, sector):  # a NaN entry: this coupling's solve fails at step 1
        ham = real(params, sector)
        if params.lam == 2.0:
            ham.data[0] = np.nan
        return ham

    monkeypatch.setattr(lmg, "_hamiltonian", poisoned)
    params = LmgParams(n_particles=9, lam=0.0)
    results = ground_state(params, lams=(0.0, 1.0, 2.0, 1e308, 3.0))
    assert [type(r).__name__ for r in results[2:4]] == ["ValueError", "ValueError"]
    assert "ham is not finite" in str(results[2]) and "v0 must be finite" in str(results[3])
    for lam, got in zip((0.0, 1.0, 3.0), results[:2] + results[4:]):
        want = ground_state(replace(params, lam=lam))
        assert got.state.coeffs.tobytes() == want.state.coeffs.tobytes()
        assert got.parity_signature.tobytes() == want.parity_signature.tobytes()


def test_wide_stack_coefficients_grow_with_the_steps(monkeypatch):
    calls, real = [], lmg.eigsh

    def capture(ham, **kwargs):
        calls.append((ham, kwargs["v0"]))
        return real(ham, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lmg, "eigsh", capture)
        ground_state(LmgParams(n_particles=50, lam=0.0), lams=default_lambda_grid())
    ((hams, v0),) = calls
    lmg.eigsh(hams, v0=v0)  # kernels bound
    tracemalloc.start()
    try:
        pairs = lmg.eigsh(hams, v0=v0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 121
    # 7.7 MiB: 5.8 MB more when alphas, betas and ys held 2001 steps per row
    assert peak <= 9 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# Rayleigh-Ritz at run time


def _lower_cat_energy(monkeypatch, target, by):
    real = sweep._tables_energy

    def lowered(S, Q, n, epsilon, lam):
        return real(S, Q, n, epsilon, lam) - np.where(np.asarray(lam) == target, by, 0.0)

    monkeypatch.setattr(sweep, "_tables_energy", lowered)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bound", [1, None, 2**40])
def test_cat_below_the_ground_energy_names_its_row(monkeypatch, bound, jobs):
    _lower_cat_energy(monkeypatch, 2.0, 0.5)
    if bound is not None:
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", bound)
    config = SweepConfig(n_particles=9, lambdas=(0.0, 1.0, 2.0, 3.0), jobs=jobs)
    with pytest.raises(IntegrityError) as info:
        run_sweep(config)
    message = str(info.value)
    assert message.startswith("N=9, lam=2.0, source=variational: variational energy ")
    assert " below ground " in message
    if jobs == 1:  # a worker's error comes back with its remote traceback as cause
        assert type(info.value.__cause__) is IntegrityError


@pytest.mark.parametrize("margin, fails", [(0.5, False), (2.0, True)])
def test_the_floor_is_the_ground_energy_less_the_residual_tolerance(monkeypatch, margin, fails):
    config = SweepConfig(n_particles=9, lambdas=(0.0, 1.0, 2.0))
    energies = {(r.lam, r.source): r.energy for r in run_sweep(config)}
    gap = energies[(1.0, "variational")] - energies[(1.0, "numerical")]
    tol = 1e-10 * (1.0 + 1.0)  # 1e-10 (eps + lam)
    _lower_cat_energy(monkeypatch, 1.0, gap + margin * tol)
    if fails:
        with pytest.raises(IntegrityError, match=r"^N=9, lam=1\.0, source=variational: "):
            run_sweep(config)
    else:
        assert len(run_sweep(config)) == 6


@pytest.mark.parametrize(
    "sources, observables",
    [(("variational",), ("energy",)), (("numerical", "variational"), ("two_atom",))],
)
def test_no_check_without_both_energies(monkeypatch, sources, observables):
    _lower_cat_energy(monkeypatch, 2.0, 0.5)
    config = SweepConfig(n_particles=9, lambdas=(1.0, 2.0), sources=sources)
    config = replace(config, observables=observables)
    assert len(run_sweep(config)) == 2 * len(sources)
