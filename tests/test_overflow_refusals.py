"""Inputs whose arithmetic overflows are refused by name, with no numpy
warning on the way.

A surface axis whose max - min is past the float range is refused while
the config is validated, before np.linspace would make NaN nodes.  A
coupling whose Lanczos residual squares past the float range fails its
row with the solver's "ham is not finite" error.  The CLI, run with
RuntimeWarning as an error, exits 2 for both and writes no table.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import udspin
from udspin.errors import ConfigError
from udspin.sweep import SurfaceConfig, SweepConfig, run_sweep

SRC = str(Path(udspin.__file__).resolve().parents[1])
SPAN = ["--a-min=-1e308", "--a-max=1e308", "--a-count", "3", "--b-count", "3"]


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "udspin", *argv],
        env=env, capture_output=True, text=True, check=False,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--n", "5", "--observable", "two_atom", *SPAN],
        ["surface", "--n", "5", "--observable", "level_entropy_1", *SPAN],
        ["surface", "--n", "5", "--observable", "energy", *SPAN],
        ["sweep", "--n", "5", "--lambdas", "0,1e160"],
        ["sweep", "--n", "5", "--lambdas", "0,1e300"],
    ],
    ids=["span-two_atom", "span-level_entropy_1", "span-energy", "lam-1e160", "lam-1e300"],
)
def test_cli_exits_2_without_a_warning_or_a_table(argv, tmp_path):
    done = _run_cli(*argv, "--out", str(tmp_path / "table.csv"))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ")
    assert "RuntimeWarning" not in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("axis", ["a", "b"])
def test_an_overflowing_span_is_refused_naming_its_axis(axis):
    bounds = {f"{axis}_min": -1e308, f"{axis}_max": 1e308}
    with pytest.raises(ConfigError, match=rf"^{axis} span 1e\+308 - -1e\+308 is past the float"):
        SurfaceConfig(**bounds).validated()


def test_the_widest_finite_span_is_kept():
    config = SurfaceConfig(a_min=-8e307, a_max=8e307, a_count=3, b_count=3)
    assert config.validated() == config


@pytest.mark.parametrize("lam", [1e160, 1e300])
def test_a_residual_past_the_float_range_fails_its_row(lam):
    with pytest.raises(ValueError) as info:
        run_sweep(SweepConfig(n_particles=5, lambdas=(0.0, lam)))
    assert str(info.value).startswith(f"N=5, lam={lam!r}, source=numerical: ")
    assert "ham is not finite" in str(info.value)
