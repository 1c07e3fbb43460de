"""Each table row is checked in the pass that makes it.

A sweep row is range-checked in its block, before it becomes a record, so
the first failing row in (lambda, source) order names itself, whatever the
block size or the worker count, even when a later row's solve fails.  A
surface is range-checked before either of its files is written, so a
failing surface leaves no file.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import udspin.sweep as sweep
from udspin.errors import IntegrityError
from udspin.sweep import SurfaceConfig, SweepConfig, run_sweep, write_surface


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bound", [1, None, 2**40])
def test_a_bad_cell_before_a_failed_solve_names_its_row(monkeypatch, bound, jobs):
    real_point, real_solve = sweep.stationary_point, sweep.ground_state

    def point(params):  # a non-finite alpha0 cell in the rows of 1.0
        got = real_point(params)
        return replace(got, alpha0=math.nan) if params.lam == 1.0 else got

    def solve(params, *args, lams):  # the stacked solve fails at 2.0
        results = real_solve(params, *args, lams=lams)
        return [
            ValueError("injected solver failure") if lam == 2.0 else result
            for lam, result in zip(lams, results)
        ]

    monkeypatch.setattr(sweep, "stationary_point", point)
    monkeypatch.setattr(sweep, "ground_state", solve)
    if bound is not None:
        monkeypatch.setattr(sweep, "_SWEEP_BLOCK_BYTES", bound)
    config = SweepConfig(n_particles=9, lambdas=(0.0, 1.0, 2.0, 3.0), jobs=jobs)
    with pytest.raises(IntegrityError) as info:
        run_sweep(config)
    assert str(info.value) == "N=9, lam=1.0, source=numerical: alpha0: non-finite value nan"


def test_a_failing_surface_writes_no_file(monkeypatch, tmp_path):
    def values(config, a, b):
        out = np.full(np.broadcast(a, b).shape, 0.5)
        out[1, 2] = 1.5
        return out

    monkeypatch.setattr(sweep, "_surface_value", values)
    config = SurfaceConfig(n_particles=4, observable="two_atom", a_count=3, b_count=3)
    path = tmp_path / "surface.csv"
    with pytest.raises(IntegrityError) as info:
        write_surface(config, path)
    assert str(info.value).startswith(f"{path}: (1.0, 2.0): 1.5 outside [0, 1] ")
    assert list(tmp_path.iterdir()) == []
