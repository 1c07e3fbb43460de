"""Every table file goes through one write step, and the error for a file
that cannot be written names that file: the sweep table, the surface table
and the surface's stationary-curve sidecar."""

import re

import pytest

from udspin.errors import ConfigError
from udspin.sweep import SurfaceConfig, SweepRecord, write_records, write_surface

_SMALL_SURFACE = SurfaceConfig(n_particles=3, observable="one_atom", a_count=2, b_count=2)


def _write_sweep(path):
    write_records([SweepRecord(lam=0.0, source="numerical")], path)


@pytest.mark.parametrize(
    "write, blocked",
    [
        (_write_sweep, "s.csv"),
        (lambda path: write_surface(_SMALL_SURFACE, path), "s.csv"),
        (lambda path: write_surface(_SMALL_SURFACE, path), "s.csv.stationary.csv"),
    ],
    ids=["sweep table", "surface table", "surface sidecar"],
)
def test_unwritable_file_is_named(tmp_path, write, blocked):
    (tmp_path / blocked).mkdir()  # a directory where the file would go
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(tmp_path / blocked))}: "):
        write(tmp_path / "s.csv")
