"""One entropy rule: a single spectrum is the one-row case of the stacked pass.

Oracles: the stacked pass row by row, which spectrum_entropies matches in
bytes in all three numbers; the von Neumann sum over the eigenvalues above
the clip, written out here, which it matches within roundoff; and a count
of the entropy calls a default-grid sweep and a cat two-atom surface make,
which go through the stacked pass only.
"""

import math

import numpy as np
import pytest

import udspin
from udspin import cli, rdm, selftest, sweep
from udspin.errors import IntegrityError
from udspin.rdm import entropies, linear_entropies, spectrum_entropies
from udspin.sweep import SurfaceConfig, SweepConfig, run_sweep, surface_table, write_records

KINDS = [("level", 10, 11), ("level", 100, 101), ("one_atom", 7, 3), ("two_atom", 7, 9)]


def _stack(kind: str, dim: int) -> np.ndarray:
    rng = np.random.default_rng(dim + len(kind))
    w = rng.random((12, dim)) ** 3
    w /= w.sum(axis=-1, keepdims=True)
    w[1] = 0.0
    w[1, 0] = 1.0  # a pure state
    w[2, : dim // 2] = 0.0  # zero-padded: entries the von Neumann sum drops
    w[2] /= w[2].sum()
    w[3, -1] = -5e-9  # a roundoff negative within 1e-8 snaps to 0
    w[4] = 0.0
    w[4, 0], w[4, 1] = 1.0 + 1e-12, -1e-12  # a linear entropy a hair below 0
    return w


@pytest.mark.parametrize("kind, n, dim", KINDS)
def test_one_spectrum_is_the_stacked_row_in_bytes(kind, n, dim):
    w = _stack(kind, dim)
    purity, linear, von_neumann = rdm._entropy_rows(w, kind, n, 3)
    assert linear.tobytes() == linear_entropies(w, kind, n, 3).tobytes()
    for k, row in enumerate(w):
        report = spectrum_entropies(row, kind, n, 3)
        assert float(purity[k]).hex() == report.purity.hex()
        assert float(linear[k]).hex() == report.linear.hex()
        assert float(von_neumann[k]).hex() == report.von_neumann.hex()
    pure = spectrum_entropies(w[1], kind, n, 3)
    assert (pure.purity, pure.linear) == (1.0, 0.0)
    assert math.copysign(1.0, pure.von_neumann) == 1.0  # +0.0, not -0.0
    assert spectrum_entropies(w[4], kind, n, 3).linear == 0.0


@pytest.mark.parametrize("kind, n, dim", KINDS)
def test_von_neumann_is_the_sum_over_eigenvalues_above_the_clip(kind, n, dim):
    d_eff = {"level": n + 1, "one_atom": 3, "two_atom": 9}[kind]
    for row in _stack(kind, dim):
        nz = np.clip(row, 0.0, 1.0)  # a hair past [0, 1] is roundoff
        nz = nz[nz > 1e-10]
        want = float(-(nz * np.log(nz)).sum() / math.log(d_eff))
        assert spectrum_entropies(row, kind, n, 3).von_neumann == pytest.approx(want, abs=1e-14)


def test_non_finite_matrix_fails_on_its_eigenvalues():
    rho = np.eye(3) / 3.0
    rho[0, 1] = math.nan
    with pytest.raises(IntegrityError, match="reduced-density-matrix eigenvalue: non-finite"):
        entropies(rho, "one_atom", 5, 3)


def test_one_matrix_report_is_its_spectrum_report():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    rho[0, 1], rho[1, 0] = 0.1j, -0.1j
    w = np.linalg.eigvalsh(rho)
    assert entropies(rho, "one_atom", 5, 3) == spectrum_entropies(w, "one_atom", 5, 3)


# ---------------------------------------------------------------------------
# sweeps and surfaces take the stacked pass only


@pytest.fixture
def entropy_calls(monkeypatch):
    calls = {"linear_entropies": 0, "spectrum_entropies": 0, "entropies": 0}
    for name in calls:
        real = getattr(rdm, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (udspin, rdm, sweep, cli, selftest):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_default_grid_sweep_takes_the_stacked_pass_only(entropy_calls, tmp_path):
    records = run_sweep(SweepConfig(n_particles=12))
    write_records(records, tmp_path / "sweep.csv")
    assert len(records) == 242
    assert entropy_calls["linear_entropies"] > 0
    assert entropy_calls["spectrum_entropies"] == entropy_calls["entropies"] == 0


def test_cat_two_atom_surface_takes_the_stacked_pass_only(entropy_calls):
    config = SurfaceConfig(n_particles=10, kind="dcat", observable="two_atom",
                           a_count=9, b_count=9)
    assert len(surface_table(config)) == 81
    assert entropy_calls["linear_entropies"] == math.ceil(81 / sweep._SURFACE_BLOCK)  # per block
    assert entropy_calls["spectrum_entropies"] == entropy_calls["entropies"] == 0


def test_counting_sees_a_report_call(entropy_calls):
    rdm.entropies(np.eye(3) / 3.0, "one_atom", 5, 3)
    assert entropy_calls == {"linear_entropies": 0, "spectrum_entropies": 1, "entropies": 1}
