"""Lanczos on a stack: lmg.eigsh over a list of Hamiltonians of one sector,
as a sweep block solves its couplings.

Oracle: the one-matrix call.  Every pair of a stack must have its bytes,
whatever else the stack holds: lam = 0 (a pattern with its zero entries
dropped, which breaks down at step 1) beside other couplings, more rows than
the shared Krylov store holds (so the replay runs), a row that fails or a
start that is refused.  A failing row gets the error its one-matrix call
raises, and a sweep reports the first failing row in (lam, source) order.
"""

import math

import numpy as np
import pytest

import udspin.lmg as lmg
import udspin.sweep as sweep
from udspin.cli import main
from udspin.errors import IntegrityError
from udspin.lmg import LmgParams, ground_state
from udspin.sweep import SweepConfig, default_lambda_grid, run_sweep


def _stack(monkeypatch, n, lams):
    """(hams, v0) of the stacked solve ground_state makes for lams at N = n."""
    calls, real = [], lmg.eigsh

    def capture(ham, **kwargs):
        calls.append((ham, kwargs["v0"]))
        return real(ham, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lmg, "eigsh", capture)
        ground_state(LmgParams(n_particles=n, lam=lams[0]), lams=lams)
    ((hams, v0),) = calls
    return hams, v0


def _one_by_one(hams, v0):
    """The one-matrix call of each row: its pair, or the error it raises."""
    outcomes = []
    for ham, start in zip(hams, v0):
        try:
            outcomes.append(lmg.eigsh(ham, v0=start))
        except (IntegrityError, ValueError) as exc:
            outcomes.append(exc)
    return outcomes


def _assert_same(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, Exception):
            assert type(a) is type(b) and str(a) == str(b), k
        else:
            assert a[0].dtype == b[0].dtype and a[0].tobytes() == b[0].tobytes(), k
            assert a[1].shape == b[1].shape and a[1].tobytes() == b[1].tobytes(), k


GRIDS = {n: default_lambda_grid() for n in (4, 9, 50, 51, 100)}
GRIDS[400] = tuple(float(lam) for lam in range(7))


@pytest.mark.parametrize("n", sorted(GRIDS))
def test_every_pair_of_a_stack_has_the_bytes_of_its_one_matrix_call(monkeypatch, n):
    lams = GRIDS[n]
    hams, v0 = _stack(monkeypatch, n, lams)
    want = _one_by_one(hams, v0)
    dim = v0.shape[1]
    if n in (51, 400):  # the whole grid overflows the store: the replay runs
        assert lmg._KRYLOV_STORE_FLOATS // (len(lams) * dim) < 60
    for width in sorted({1, 2, 9, len(lams)} - ({9} if n == 400 else set())):
        got = []
        for k in range(0, len(lams), width):
            got += lmg.eigsh(hams[k : k + width], v0=v0[k : k + width])
        _assert_same(got, want)


def test_lam_zero_rows_mix_with_other_couplings(monkeypatch):
    lams = (0.0, 0.3, 1.5, 6.0)
    hams, v0 = _stack(monkeypatch, 50, lams)
    assert hams[0].nnz < hams[1].nnz  # lam = 0 drops every off-diagonal entry
    order = [0, 1, 0, 2, 3, 0]
    got = lmg.eigsh([hams[k] for k in order], v0=v0[order])
    _assert_same(got, [_one_by_one(hams, v0)[k] for k in order])


def _counting_matvec(monkeypatch):
    calls, real = [], lmg.csr_matvec

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(lmg, "csr_matvec", counting)
    return calls


def _steps(ham, v0):
    """Lanczos steps of the one-matrix call, from its last tridiagonal."""
    sizes, real = [], lmg._lowest_ritz

    def ritz(alphas, off):
        sizes.append(alphas.size)
        return real(alphas, off)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lmg, "_lowest_ritz", ritz)
        lmg.eigsh(ham, v0=v0)
    return sizes[-1]


@pytest.mark.parametrize("n, width", [(51, 2), (51, 121), (400, 7)])
def test_one_matvec_per_stack_step_and_per_replayed_step(monkeypatch, n, width):
    lams = GRIDS[n][:width]
    hams, v0 = _stack(monkeypatch, n, lams)
    longest = max(_steps(ham, start) for ham, start in zip(hams, v0))
    cap = max(2, lmg._KRYLOV_STORE_FLOATS // (len(lams) * v0.shape[1]))
    calls = _counting_matvec(monkeypatch)
    lmg.eigsh(hams, v0=v0)
    assert len(calls) == longest + max(0, longest - cap)


def test_default_n50_sweep_makes_one_matvec_per_stack_step(monkeypatch):
    config = SweepConfig(n_particles=50)
    lams = config.validated().lambdas
    hams, v0 = _stack(monkeypatch, 50, lams)
    steps = [_steps(ham, start) for ham, start in zip(hams, v0)]
    size = sweep._SWEEP_BLOCK_BYTES // (2 * 16 * 1326)  # 9 couplings
    assert size == 9
    calls = _counting_matvec(monkeypatch)
    run_sweep(config)
    blocks = [steps[k : k + size] for k in range(0, len(steps), size)]
    assert len(calls) == sum(max(block) for block in blocks) <= 14 * 70
    assert sum(steps) > 7000  # one matvec per step when each coupling ran on its own


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_a_refused_start_fails_its_own_row(monkeypatch, bad):
    hams, v0 = _stack(monkeypatch, 12, (0.4, 0.9, 2.5))
    v0 = v0.copy()
    v0[1] = 0.0 if bad == 0.0 else 1.0
    v0[1, -1] = bad
    got = lmg.eigsh(hams, v0=v0)
    assert isinstance(got[1], ValueError)
    assert str(got[1]).startswith("v0 must be finite and nonzero, got norm ")
    _assert_same(got, _one_by_one(hams, v0))


def test_rows_that_fail_stop_and_the_others_go_on(monkeypatch):
    lams = (0.0, 0.7, 1e154, 2.0, 3.0)
    hams, v0 = _stack(monkeypatch, 9, lams)
    hams[3] = lmg._Csr(hams[3].indptr, hams[3].indices, hams[3].data.copy())
    hams[3].data[0] = math.nan  # a non-finite alpha at step 1
    got = lmg.eigsh(hams, v0=v0)
    assert "residual estimate nan" in str(got[2])
    assert "ham is not finite" in str(got[3])
    _assert_same(got, _one_by_one(hams, v0))


def test_rows_past_the_step_cap_fail_and_the_others_go_on(monkeypatch):
    hams, v0 = _stack(monkeypatch, 40, (0.0, 1.5, 0.0, 4.0))
    monkeypatch.setattr(lmg, "_LANCZOS_MAX_STEPS", 5)
    got = lmg.eigsh(hams, v0=v0)
    assert [type(outcome) for outcome in got[1::2]] == [IntegrityError] * 2
    _assert_same(got, _one_by_one(hams, v0))


# ---------------------------------------------------------------------------
# a sweep reports the first failing row, whatever the stacks


def _poison(monkeypatch, lam):
    """A NaN entry in H at this coupling: its solve fails at step 1."""
    real = lmg._hamiltonian

    def poisoned(params, sector):
        ham = real(params, sector)
        if params.lam == lam:
            ham.data[0] = math.nan
        return ham

    monkeypatch.setattr(lmg, "_hamiltonian", poisoned)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bound", [1, None, 2**40])
def test_sweep_names_the_first_failing_row(monkeypatch, bound, jobs):
    # 1e154 fails at its first check (step 10), 2e154 earlier, at step 1
    _poison(monkeypatch, 2e154)
    if bound is not None:
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", bound)
    config = SweepConfig(n_particles=9, lambdas=(0.0, 1.0, 2.0, 1e154, 2e154, 3e154), jobs=jobs)
    with pytest.raises(ValueError) as info:
        run_sweep(config)
    message = str(info.value)
    where = "N=9, lam=1e+154, source=numerical: eigensolver failed in sector='even': "
    assert message.startswith(where)
    assert message.endswith("Lanczos step 10: residual estimate nan, ham too large")


def test_sweep_failure_names_lambda_once(tmp_path, capsys):
    argv = ["sweep", "--n", "5", "--lambdas", "0,1e154", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("1e+154") == 1 and err.count("N=5") == 1
    where = "error: N=5, lam=1e+154, source=numerical: eigensolver failed in sector='even': "
    assert err.startswith(where)
