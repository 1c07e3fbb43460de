"""The two-pass Lanczos solver behind ground_state, and where a sweep
failure says it happened.

Oracles: the variational cat, which at lam = 0 is the exact ground state
|N,0,0> that Lanczos meets at its first step; byte identity of an
N = 400 sweep across worker counts and BLAS thread settings, a size at
which threaded BLAS-1 reductions would split their sums; and the
messages of errors raised on purpose.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udspin
import udspin.lmg as lmg
import udspin.states as states
from udspin.basis import shared_basis
from udspin.cli import main
from udspin.errors import ConfigError, IntegrityError
from udspin.lmg import LmgParams, ground_state
from udspin.sweep import SweepConfig, run_sweep

ROW_CELLS = (
    "L_level_1",
    "L_level_2",
    "L_level_3",
    "L1_atom",
    "L2_atom",
    "xi2_total",
    "xi2_21",
    "xi2_31",
    "xi2_32",
)


@pytest.mark.parametrize("epsilon", [1.0, 1.611061])
def test_lam_zero_numerical_row_is_the_variational_row(epsilon):
    # the cat start |N,0,0> is an eigenvector: beta_1 = 0 ends Lanczos with it
    numerical, variational = run_sweep(
        SweepConfig(n_particles=50, epsilon=epsilon, lambdas=(0.0,))
    )
    for cell in ROW_CELLS:
        assert getattr(numerical, cell) == getattr(variational, cell), cell
    assert numerical.L_level_1 == 0.0 and numerical.L2_atom == 0.0


def test_every_sector_goes_through_the_solver(monkeypatch):
    calls = []
    real = lmg.eigsh

    def capture(ham, **kwargs):
        calls.append(ham.shape)
        return real(ham, **kwargs)

    monkeypatch.setattr(lmg, "eigsh", capture)
    result = ground_state(LmgParams(n_particles=3, lam=1.3), sector=(1, 1))
    assert calls == [(1, 1)]
    assert result.energy == 0.0


def test_solver_rejects_other_eigenpairs():
    ham = lmg.build_hamiltonian(shared_basis(4, 3), LmgParams(n_particles=4, lam=1.0))
    v0 = np.ones(ham.shape[0])
    with pytest.raises(ValueError, match="lowest eigenpair"):
        lmg.eigsh(ham, k=2, which="SA", v0=v0)
    with pytest.raises(ValueError, match="lowest eigenpair"):
        lmg.eigsh(ham, k=1, which="LA", v0=v0)


def test_step_cap_names_where_the_solve_failed(monkeypatch):
    monkeypatch.setattr(lmg, "_LANCZOS_MAX_STEPS", 5)
    with pytest.raises(IntegrityError) as info:
        ground_state(LmgParams(n_particles=40, lam=1.5))
    message = str(info.value)
    for part in ("failed to converge", "5 Lanczos steps", "N=40", "lam=1.5", "sector='even'"):
        assert part in message, part


def test_n400_sweep_is_byte_identical_across_jobs_and_blas_threads(tmp_path, capsys):
    # dim 20,301: above the length at which OpenBLAS splits a dot product
    # over threads, so a BLAS reduction in the solver would show here
    args = ["sweep", "--n", "400", "--lambdas", "0,1,2,3,4,5,6"]
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


# ---------------------------------------------------------------------------
# SweepConfig.lambdas takes numbers only


@pytest.mark.parametrize("lambdas", ["12", "0.5", ("0.5",), (0.5, None), (True, 2.0), 1.5])
def test_non_numeric_lambdas_are_config_errors(lambdas):
    with pytest.raises(ConfigError):
        SweepConfig(n_particles=5, lambdas=lambdas).validated()


def test_numeric_lambdas_of_any_real_type_are_accepted():
    lambdas = (0, np.float32(0.5), np.int64(1), 1.5)
    assert SweepConfig(n_particles=5, lambdas=lambdas).validated().lambdas == (0.0, 0.5, 1.0, 1.5)


# ---------------------------------------------------------------------------
# a sweep failure names N, the coupling and the source


def test_numerical_failure_names_n_lambda_and_source(monkeypatch):
    def nan_eigsh(ham, **kwargs):
        return np.array([math.nan]), np.full((ham.shape[0], 1), math.nan)

    monkeypatch.setattr(lmg, "eigsh", nan_eigsh)
    with pytest.raises(IntegrityError, match="eigenpair residual") as info:
        run_sweep(SweepConfig(n_particles=9, lambdas=(1.25,)))
    message = str(info.value)
    assert message.startswith("N=9, lam=1.25, source=numerical: ")
    assert isinstance(info.value.__cause__, IntegrityError)
    assert str(info.value.__cause__) in message


def test_variational_failure_names_n_lambda_and_source(monkeypatch):
    monkeypatch.setattr(states, "dcat_norm_squared", lambda z, n: math.nan)
    with pytest.raises(IntegrityError, match="cat-state norm mismatch") as info:
        run_sweep(SweepConfig(n_particles=6, lambdas=(0.0, 2.0), sources=("variational",)))
    assert str(info.value).startswith("N=6, lam=0.0, source=variational: ")
    assert type(info.value.__cause__) is IntegrityError
