"""Built-in oracle suite: quick deterministic cross-checks for the CLI.

Each check recomputes a closed-form quantity through an independent
route (brute-force partial trace, dense operator action, explicit
superposition, grid minimization) and compares.  One PASS/FAIL line is
printed per check; the runner returns the number of failures so the
CLI can map any failure to its integrity exit code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .basis import (
    SymmetricBasis,
    SymmetricState,
    _levels0,
    apply_sij,
    basis_ket,
    dimension,
    expval_sij,
    expval_sij_skl,
)
from .lmg import (
    LmgParams,
    build_hamiltonian,
    even_sector_indices,
    ground_state,
    thermo_curvature,
    thermo_energy,
    variational_cat,
    variational_energy,
)
from .rdm import (
    entropies,
    level_populations,
    level_weights,
    one_qudit_rdm,
    partial_trace_oracle,
    two_qudit_rdm,
)
from .squeezing import su2_xi, xi_total
from .states import (
    dcat,
    dcat_expval_tables,
    dscs,
    dscs_expval_tables,
    nodon,
    project_even,
)
from .sweep import SurfaceConfig, SweepConfig, render_records, run_sweep, surface_table

__all__ = ["CHECKS", "run_selftest"]

_SEED = 20260815


def _random_state(basis: SymmetricBasis, rng) -> SymmetricState:
    c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return SymmetricState(basis, c).normalized()


def _random_even_state(basis: SymmetricBasis, rng) -> SymmetricState:
    state = _random_state(basis, rng)
    even, _ = project_even(state)
    return even.normalized()


def _check_dimensions() -> None:
    for n, d, dim in ((1, 2, 2), (2, 3, 6), (10, 3, 66), (50, 3, 1326), (200, 3, 20301)):
        assert dimension(n, d) == dim, (n, d, dim, dimension(n, d))
    basis = SymmetricBasis(6, 4)
    for rank, occ in enumerate(basis.occupations):
        assert basis.rank(occ) == rank


def _check_operator_algebra() -> None:
    rng = np.random.default_rng(_SEED)
    basis = SymmetricBasis(5, 3)
    state = _random_state(basis, rng)
    # adjointness <S_ij psi|phi> = <psi|S_ji phi>
    other = _random_state(basis, rng)
    lhs = np.vdot(apply_sij(state, 2, 1).coeffs, other.coeffs)
    rhs = np.vdot(state.coeffs, apply_sij(other, 1, 2).coeffs)
    assert abs(lhs - rhs) < 1e-12
    # Casimir: sum_ij <S_ij S_ji> = N (N + D - 1)
    total = sum(
        expval_sij_skl(state, i, j, j, i) for i in (1, 2, 3) for j in (1, 2, 3)
    )
    assert abs(total - 5 * (5 + 3 - 1)) < 1e-10, total


def _check_surface_vs_states(kind: str, state_of, n: int) -> None:
    """A 2x2 surface of each moment observable, evaluated in one array pass
    over closed forms, against the state vector built at every node."""
    basis = SymmetricBasis(n, 3)
    direct_of = {
        "one_atom": lambda state: entropies(one_qudit_rdm(state), "one_atom", n, 3).linear,
        "two_atom": lambda state: entropies(two_qudit_rdm(state), "two_atom", n, 3).linear,
        "squeezing_total": xi_total,
    }
    for observable, direct in direct_of.items():
        config = SurfaceConfig(
            n_particles=n, kind=kind, observable=observable,
            a_min=0.3, a_max=1.1, a_count=2, b_min=0.2, b_max=0.9, b_count=2,
        )
        for a, b, value in surface_table(config):
            want = direct(state_of(basis, (1.0, a, b)))
            assert abs(value - want) < 1e-11, (kind, observable, a, b, value, want)


def _check_coherent_moments() -> None:
    basis = SymmetricBasis(8, 3)
    z = (1.0, 0.6 - 0.3j, 0.2 + 0.5j)
    state = dscs(basis, z)
    closed, _ = dscs_expval_tables(z, 8)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            direct = expval_sij(state, i, j)
            entry = closed[_levels0(3, i, j)]
            assert abs(entry - direct) < 1e-11, (i, j, entry, direct)
    _check_surface_vs_states("dscs", dscs, 8)


def _check_cat_moments() -> None:
    basis = SymmetricBasis(7, 3)
    z = (1.0, 0.8, 0.45)
    cat = dcat(basis, z)
    _, closed = dcat_expval_tables(z, 7)
    for indices in ((1, 1, 2, 2), (2, 1, 1, 2), (3, 1, 1, 3), (2, 1, 2, 1)):
        entry = closed[_levels0(3, *indices)]
        direct = expval_sij_skl(cat, *indices)
        assert abs(entry - direct) < 1e-11, (indices, entry, direct)
    for level in (1, 2, 3):  # closed-form level weights run over N - occupation
        weights = level_weights(np.square(z), level, 7, cat=True)[::-1]
        assert np.max(np.abs(weights - level_populations(cat, level))) < 1e-12, level
    _check_surface_vs_states("dcat", dcat, 7)


def _check_nodon_values() -> None:
    basis = SymmetricBasis(9, 3)
    state = nodon(basis)
    rho1 = one_qudit_rdm(state)
    assert np.allclose(rho1, np.eye(3) / 3.0, atol=1e-12)
    report = entropies(two_qudit_rdm(state), "two_atom", 9, 3)
    assert abs(report.linear - 3.0 / 4.0) < 1e-12, report.linear
    assert abs(xi_total(state) - 1.0) < 1e-12


def _check_rdm_oracle() -> None:
    rng = np.random.default_rng(_SEED + 1)
    basis = SymmetricBasis(5, 3)
    # a generic state takes the Gram route, a parity-definite one the sector route
    for state in (_random_state(basis, rng), _random_even_state(basis, rng)):
        rho2 = two_qudit_rdm(state)
        oracle = partial_trace_oracle(state, keep=2)
        assert np.max(np.abs(rho2 - oracle)) < 1e-10


def _check_squeezing_reduction() -> None:
    rng = np.random.default_rng(_SEED + 2)
    basis = SymmetricBasis(6, 2)
    state = _random_even_state(basis, rng)
    a = xi_total(state)
    b = su2_xi(state)
    assert abs(a - b) < 1e-10, (a, b)


def _check_hamiltonian_sector() -> None:
    basis = SymmetricBasis(9, 3)
    idx = even_sector_indices(basis)
    for lam in (0.3, 1.2, 2.5):  # one coupling per phase
        params = LmgParams(n_particles=9, lam=lam)
        even = ground_state(params, sector="even").energy
        full = ground_state(params, sector="full").energy
        assert abs(even - full) < 1e-10, (lam, even, full)
        # the dense spectrum does not go through the Lanczos solver
        dense = build_hamiltonian(basis, params).toarray()
        for got, block in ((full, dense), (even, dense[np.ix_(idx, idx)])):
            want = np.linalg.eigvalsh(block)[0]
            assert abs(got - want) < 1e-12, (lam, block.shape, got, want)
        cat_energy = variational_energy(variational_cat(basis, params), params)
        assert cat_energy >= even - 1e-12


def _check_phase_diagram() -> None:
    params = lambda lam: LmgParams(n_particles=3, epsilon=Fraction(1), lam=lam)
    assert thermo_energy(params(Fraction(1, 2))) == -1
    assert thermo_energy(params(Fraction(3, 2))) == Fraction(-4, 3)
    jump_low = thermo_curvature(params(Fraction(1, 2)), phase="II") - thermo_curvature(
        params(Fraction(1, 2)), phase="I"
    )
    jump_high = thermo_curvature(params(Fraction(3, 2)), phase="III") - thermo_curvature(
        params(Fraction(3, 2)), phase="II"
    )
    assert jump_low == -2 and jump_high == Fraction(-2, 9), (jump_low, jump_high)


def _check_sweep_determinism() -> None:
    config = SweepConfig(n_particles=8, lambdas=(0.0, 0.5, 1.0, 1.5, 2.0))
    first = render_records(run_sweep(config), "csv")
    second = render_records(run_sweep(config), "csv")
    assert first == second


CHECKS = (
    ("basis dimensions and ranking", _check_dimensions),
    ("operator adjoint and Casimir", _check_operator_algebra),
    ("coherent-state first moments", _check_coherent_moments),
    ("cat-state quadratic moments and level weights", _check_cat_moments),
    ("balanced-superposition values", _check_nodon_values),
    ("two-particle reduction vs partial trace", _check_rdm_oracle),
    ("two-level squeezing reduction", _check_squeezing_reduction),
    ("even-sector and full Lanczos vs dense eigvalsh", _check_hamiltonian_sector),
    ("phase-boundary continuity and curvature", _check_phase_diagram),
    ("sweep determinism", _check_sweep_determinism),
)


def run_selftest(echo=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            echo(f"[selftest] FAIL {name}: {exc!r}")
        else:
            echo(f"[selftest] PASS {name}")
    echo(f"[selftest] {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
