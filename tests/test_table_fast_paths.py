"""The table fast paths keep the bytes of the routes they skip.

A CSV table whose rows are all numbers of one width is rendered with one
'%.12g,...' format per row instead of one _csv_cell call per cell; the
oracle is the per-cell csv.writer route, written out here.  A stack of
finite matrices goes to eigvalsh without the masked copy a non-finite
matrix needs; the oracle is the masked route.  The two-particle reduction
works in place on its own temporaries, never on the caller's tables; the
oracle is its out-of-place formula.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udspin import rdm, sweep
from udspin.rdm import two_qudit_rdm_from_tables
from udspin.states import dcat_expval_tables, dscs_expval_tables

_SETTINGS = settings(database=None, derandomize=True, max_examples=300, deadline=None)


def _outcome(fn, value):
    """fn(value), or the class of the error it raises."""
    try:
        return fn(value)
    except (OverflowError, TypeError, ValueError) as exc:
        return type(exc)


@_SETTINGS
@given(st.floats() | st.integers() | st.booleans())
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(10**400)
def test_one_format_spec_gives_the_cell_of_csv_cell(value):
    assert _outcome(lambda v: "%.12g" % v, value) == _outcome(sweep._csv_cell, value)


def _per_cell(header, rows) -> str:
    """The per-cell route: csv.writer over one _csv_cell string per cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([sweep._csv_cell(v) for v in row])
    return buffer.getvalue()


_NUMBERS = st.floats() | st.integers(-(2**1000), 2**1000) | st.booleans()


@_SETTINGS
@given(st.integers(0, 5).flatmap(
    lambda width: st.lists(st.tuples(*[_NUMBERS] * width) | st.lists(_NUMBERS, min_size=width,
                                                                      max_size=width))))
def test_rows_of_numbers_of_one_width_keep_the_per_cell_bytes(rows):
    header = ("alpha", "beta", "value")
    assert sweep._render_rows(header, rows, "csv") == _per_cell(header, rows)


_CELLS = _NUMBERS | st.none() | st.text(max_size=6)


@_SETTINGS
@given(st.lists(st.lists(_CELLS, max_size=5), max_size=8))
def test_rows_with_strings_none_or_ragged_widths_keep_the_per_cell_bytes(rows):
    header = ("lambda", "source", "value")
    assert sweep._render_rows(header, rows, "csv") == _per_cell(header, rows)


@pytest.mark.parametrize(
    "rows, cell_calls",
    [
        ([(0.5, -0.0, 3), (1e300, math.nan, True)], 0),  # numbers of one width: one format per row
        ([(0.5, None, 3.0), (1.0, 2.0, 3.0)], 6),  # a None cell
        ([(0.5, "numerical", 3.0)], 3),  # a string cell
        ([(0.5, 1.0, 3.0), (1.0, 2.0)], 5),  # ragged
        ([(np.float64(0.5), 1.0, 3.0)], 3),  # a numpy scalar is not a Python number
    ],
)
def test_the_route_is_chosen_once_per_table(rows, cell_calls, monkeypatch):
    calls = []
    real = sweep._csv_cell
    monkeypatch.setattr(sweep, "_csv_cell", lambda v: calls.append(v) or real(v))
    text = sweep._render_rows(("a", "b", "c"), rows, "csv")
    assert len(calls) == cell_calls
    monkeypatch.setattr(sweep, "_csv_cell", real)
    assert text == _per_cell(("a", "b", "c"), rows)


def test_surface_and_sidecar_tables_keep_the_per_cell_bytes():
    config = sweep.SurfaceConfig(n_particles=12, kind="dcat", observable="two_atom",
                                 a_count=7, b_count=9)
    for header, rows in ((("alpha", "beta", "value"), sweep.surface_table(config)),
                         (("lambda", "alpha0", "beta0"), sweep.stationary_table(1.3))):
        assert sweep._render_rows(header, rows, "csv") == _per_cell(header, rows)


def _masked_spectra(rho):
    finite = np.isfinite(rho).all(axis=(-2, -1))
    return np.linalg.eigvalsh(np.where(finite[..., None, None], rho, 0.0))


def _cat_orbitals(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = np.ones((count, 3), dtype=np.complex128)
    z[:, 1:] = rng.uniform(0.0, 2.5, (count, 2)) * np.exp(2j * np.pi * rng.random((count, 2)))
    return z


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize("tables", [dcat_expval_tables, dscs_expval_tables])
def test_finite_stack_spectra_have_the_bytes_of_the_masked_route(tables, n):
    rho = two_qudit_rdm_from_tables(*tables(_cat_orbitals(300, n), n), n)
    assert np.isfinite(rho).all()
    assert rdm._spectra(rho).tobytes() == _masked_spectra(rho).tobytes()
    one = rdm.one_qudit_rdm_from_tables(tables(_cat_orbitals(300, n), n)[0], n)
    assert rdm._spectra(one).tobytes() == _masked_spectra(one).tobytes()


def _rdm_out_of_place(S, Q, n):
    d = S.shape[-1]
    delta = np.einsum("il,...jk->...ikjl", np.eye(d), S)
    rho = (np.einsum("...jilk->...ikjl", Q) - delta) / (n * (n - 1))
    rho = rho.reshape(S.shape[:-2] + (d * d, d * d))
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("n", [2, 7, 100])
@pytest.mark.parametrize("tables", [dcat_expval_tables, dscs_expval_tables])
def test_in_place_reduction_keeps_the_formula_bytes_and_the_caller_tables(tables, n):
    S, Q = tables(_cat_orbitals(40, n), n)
    S_bytes, Q_bytes = S.tobytes(), Q.tobytes()
    got = two_qudit_rdm_from_tables(S, Q, n)
    assert got.tobytes() == _rdm_out_of_place(S, Q, n).tobytes()
    assert got[7].tobytes() == two_qudit_rdm_from_tables(S[7], Q[7], n).tobytes()
    assert (S.tobytes(), Q.tobytes()) == (S_bytes, Q_bytes)
