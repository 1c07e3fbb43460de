"""One integer rule for every count, level index, parity and rank, and
cached LMG structures that let an evicted basis go.

Oracles: the rule's own contract (a Python or numpy integer, never a bool
or a float, inside [lo, hi]); the result of the same call with a plain
int; a weak reference for the evicted basis.
"""

import gc
import weakref

import numpy as np
import pytest

import udspin.lmg as lmg
from udspin.basis import (
    SymmetricBasis,
    apply_sij,
    dimension,
    expval_tables,
    matrix_element,
    occupation_unrank,
    shared_basis,
)
from udspin.cli import main
from udspin.errors import ConfigError, check_integer
from udspin.lmg import LmgParams, ground_state, parity_sector_indices
from udspin.rdm import (
    level_populations,
    partial_trace_oracle,
    two_qudit_purity_from_tables,
    two_qudit_rdm_from_tables,
)
from udspin.squeezing import xi_pair, xi_pair_from_tables
from udspin.states import (
    dcat_expval_sij,
    dscs,
    dscs_transition_sij,
    nodon_expval_sij_skl,
    nodon_expval_tables,
    parity_expval,
    representative,
)
from udspin.sweep import SurfaceConfig, SweepConfig

Z = (1.0, 0.5, 0.3)
BASIS = SymmetricBasis(4, 3)  # dim 15
STATE = dscs(BASIS, Z)
S, Q = expval_tables(STATE)

# ---------------------------------------------------------------------------
# the rule


@pytest.mark.parametrize("value", [0, 3, 7, np.int64(3), np.int32(7), np.uint8(0)])
def test_rule_returns_a_plain_int(value):
    out = check_integer(value, 0, 7, "widget")
    assert type(out) is int and out == value


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None, 2 + 0j, -1, 8]
)
def test_rule_rejects_non_integers_and_out_of_range(value):
    with pytest.raises(ValueError, match=r"^widget must be an integer in \[0, 7\], got "):
        check_integer(value, 0, 7, "widget")


def test_rule_without_upper_bound_and_with_a_chosen_error():
    assert check_integer(10**30, 2, None, "count") == 10**30
    with pytest.raises(ConfigError, match="count must be an integer of at least 2, got 1"):
        check_integer(1, 2, None, "count", ConfigError)


# ---------------------------------------------------------------------------
# inputs that used to pass or to fail with a bare numpy/Python error


FORMER = {
    "representative level=0": (lambda: representative(Z, level=0), "level index"),
    "occupation_unrank(1.5, ...)": (lambda: occupation_unrank(1.5, 4, 3), "rank"),
    "occupation_unrank(2.0, ...)": (lambda: occupation_unrank(2.0, 4, 3), "rank"),
    "parity sector (0.5, 0)": (lambda: parity_sector_indices(BASIS, (0.5, 0)), "parity"),
    "SymmetricBasis(True, 3)": (lambda: SymmetricBasis(True, 3), "n_particles"),
    "level index 1.5": (lambda: level_populations(STATE, 1.5), "level index"),
    "unrank(1.5)": (lambda: BASIS.unrank(1.5), "rank"),
    "SymmetricBasis(4.5, 3)": (lambda: SymmetricBasis(4.5, 3), "n_particles"),
    "LmgParams n_levels=3.0": (lambda: LmgParams(5, 1.0, n_levels=3.0), "n_levels"),
    "nodon_expval_tables(5.0, 3)": (lambda: nodon_expval_tables(5.0, 3), "n_particles"),
    "two-atom RDM at N=4.0": (lambda: two_qudit_rdm_from_tables(S, Q, 4.0), "n_particles"),
}


@pytest.mark.parametrize("case", FORMER)
def test_former_misbehaviours_raise_value_error_naming_the_argument(case):
    call, what = FORMER[case]
    with pytest.raises(ValueError, match=f"{what}.* must be an integer"):
        call()


# ---------------------------------------------------------------------------
# every converted site: (call, a valid value, an out-of-range value, error)

SITES = {
    "dimension n_particles": (lambda v: dimension(v, 3), 4, -1, ValueError),
    "dimension n_levels": (lambda v: dimension(4, v), 3, 0, ValueError),
    "SymmetricBasis n_particles": (lambda v: SymmetricBasis(v, 3), 4, 0, ValueError),
    "SymmetricBasis n_levels": (lambda v: SymmetricBasis(4, v), 3, 1, ValueError),
    "occupation_unrank": (lambda v: occupation_unrank(v, 4, 3), 14, 15, ValueError),
    "unrank": (BASIS.unrank, 1, 15, ValueError),
    "transitions": (lambda v: apply_sij(STATE, v, 1), 1, 4, ValueError),
    "matrix_element": (lambda v: matrix_element([1, 2, 1], [2, 1, 1], v, 2), 1, 4, ValueError),
    "parity_sector": (lambda v: BASIS.parity_sector((v, 0)), 1, 2, ValueError),
    "representative": (lambda v: representative(Z, v), 1, 4, ValueError),
    "dscs_transition_sij": (lambda v: dscs_transition_sij(Z, Z, 4, v, 1), 1, 0, ValueError),
    "parity_expval": (lambda v: parity_expval(STATE, v), 1, 4, ValueError),
    "dcat_expval_sij": (lambda v: dcat_expval_sij(Z, 4, 2, v), 1, 4, ValueError),
    "nodon_expval_tables": (lambda v: nodon_expval_tables(v, 3), 3, 2, ValueError),
    "nodon_expval_sij_skl": (lambda v: nodon_expval_sij_skl(4, 3, 1, v, 1, 1), 1, 4, ValueError),
    "level_populations": (lambda v: level_populations(STATE, v), 1, 4, ValueError),
    "two_qudit_rdm": (lambda v: two_qudit_rdm_from_tables(S, Q, v), 4, 1, ValueError),
    "two_qudit_purity": (lambda v: two_qudit_purity_from_tables(S, Q, v), 4, 1, ValueError),
    "partial_trace_oracle": (lambda v: partial_trace_oracle(STATE, v), 1, 3, ValueError),
    "xi_pair_from_tables": (lambda v: xi_pair_from_tables(Q, 4, v, 1), 2, 4, ValueError),
    "xi_pair": (lambda v: xi_pair(STATE, 3, v), 1, 0, ValueError),
    "LmgParams n_particles": (lambda v: LmgParams(n_particles=v, lam=1.0), 3, 2, ValueError),
    "LmgParams n_levels": (lambda v: LmgParams(3, 1.0, n_levels=v), 3, 4, ValueError),
    "ground_state sector": (lambda v: ground_state(LmgParams(5, 1.0), (0, v)), 1, 2, ValueError),
    "SweepConfig n_particles": (
        lambda v: SweepConfig(n_particles=v, lambdas=(1.0,)).validated(), 3, 2, ConfigError
    ),
    "SweepConfig jobs": (lambda v: SweepConfig(jobs=v).validated(), 1, 0, ConfigError),
    "SurfaceConfig n_particles": (
        lambda v: SurfaceConfig(n_particles=v).validated(), 3, 2, ConfigError
    ),
    "SurfaceConfig a_count": (lambda v: SurfaceConfig(a_count=v).validated(), 2, 1, ConfigError),
    "SurfaceConfig b_count": (lambda v: SurfaceConfig(b_count=v).validated(), 2, 1, ConfigError),
}


@pytest.mark.parametrize("site", SITES)
def test_site_rejects_bools_floats_and_out_of_range(site):
    call, good, bad, error = SITES[site]
    for value in (True, float(good), np.float64(good), bad):
        with pytest.raises(error, match="must be an integer"):
            call(value)


@pytest.mark.parametrize("site", SITES)
def test_site_accepts_numpy_integers(site):
    call, good, _, _ = SITES[site]
    for value in (good, np.int64(good), np.int32(good)):
        call(value)


def test_numpy_integer_gives_the_plain_int_result():
    assert np.array_equal(occupation_unrank(np.int64(7), 4, 3), occupation_unrank(7, 4, 3))
    assert np.array_equal(level_populations(STATE, np.int8(2)), level_populations(STATE, 2))
    assert type(SymmetricBasis(np.int64(4), np.int64(3)).n_particles) is int


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--n", "5", "--lambda-min", "0", "--lambda-max", "1",
          "--lambda-count", "1", "--out", "unused.csv"], "--lambda-count"),
        (["state", "--n", "2"], "--n"),
        (["sweep", "--n", "2", "--out", "unused.csv"], "n_particles"),
        (["surface", "--a-count", "1", "--out", "unused.csv"], "a_count"),
    ],
)
def test_cli_counts_exit_2_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    assert f"error: {flag}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cached LMG structures hold occupation rows, not the basis


def test_evicted_basis_is_freed():
    n = 37  # used by no other test, so no cache holds it yet
    ground_state(LmgParams(n_particles=n, lam=1.0))
    ground_state(LmgParams(n_particles=n, lam=1.0), sector="full")
    basis = shared_basis(n, 3)
    rows, idx, _, _ = lmg._sector_structure(n, (0, 0))
    assert np.array_equal(rows, basis.occupations[idx]) and not rows.flags.writeable
    assert lmg._workspace(n)[0] is basis.occupations
    ref = weakref.ref(basis)
    del basis
    for m in range(1000, 1018):  # more bases than shared_basis keeps
        shared_basis(m, 2)
    gc.collect()
    assert ref() is None
