"""The default coupling grid on [0, 6 epsilon] refuses an epsilon whose
6 epsilon is past the float range, while the config is validated.

A sweep on that grid and a surface, whose sidecar always takes it, exit 2
naming epsilon, print no numpy warning and write no file; a sweep with
explicit couplings keeps running at the same epsilon.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import udspin
from udspin.errors import ConfigError
from udspin.sweep import SurfaceConfig, SweepConfig, default_lambda_grid

SRC = str(Path(udspin.__file__).resolve().parents[1])


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "udspin", *argv], env=env, capture_output=True, text=True,
        check=False,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "5", "--epsilon", "1e308"],
        ["surface", "--epsilon", "1e308", "--a-count", "3", "--b-count", "3"],
    ],
    ids=["sweep", "surface"],
)
def test_cli_refuses_an_epsilon_past_the_default_grid(argv, tmp_path):
    out = tmp_path / "table.csv"
    done = _run_cli(*argv, "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.startswith("error: epsilon 1e+308 ")
    assert "RuntimeWarning" not in done.stderr
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_explicit_couplings_keep_a_large_epsilon(tmp_path):
    out = tmp_path / "table.csv"
    done = _run_cli("sweep", "--n", "5", "--epsilon", "1e308", "--lambdas", "0,1",
                    "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert len(out.read_text().splitlines()) == 5


@pytest.mark.parametrize("epsilon", [3e307, 1e308, 1.7e308])
def test_one_refusal_from_config_validation(epsilon):
    for config in (SweepConfig(epsilon=epsilon), SurfaceConfig(epsilon=epsilon)):
        with pytest.raises(ConfigError, match=r"^epsilon .* past the float range"):
            config.validated()
    with pytest.raises(ConfigError, match="^epsilon "):
        default_lambda_grid(epsilon)


def test_largest_grid_within_the_float_range_is_kept():
    epsilon = 2.9e307  # 6 epsilon = 1.74e308, below the float maximum
    assert SurfaceConfig(epsilon=epsilon).validated().epsilon == epsilon
    grid = SweepConfig(n_particles=3, epsilon=epsilon).validated().lambdas
    assert len(grid) == 121 and grid[-1] == 6.0 * epsilon
