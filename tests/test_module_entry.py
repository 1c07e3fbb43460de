"""The command line run with python -m from a source checkout, and a phase
report whose coupling takes the closed forms past the float range.

A refused coupling exits 2 before any line of the report is printed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import udspin
from udspin.cli import main

SRC = str(Path(udspin.__file__).resolve().parents[1])


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv], env=env, capture_output=True, text=True, check=False
    )


def test_python_m_udspin_runs_the_selftest():
    done = _run_module("udspin", "selftest")
    assert done.returncode == 0, done.stderr
    assert "10/10" in done.stdout


def test_python_m_udspin_cli_runs_a_command():
    done = _run_module("udspin.cli", "phase", "--lam", "1")
    assert done.returncode == 0, done.stderr
    assert "phase: II" in done.stdout.splitlines()


@pytest.mark.parametrize("lam", ["1e155", "1e308"])
def test_phase_refuses_a_coupling_past_the_float_range(capsys, lam):
    assert main(["phase", "--lam", lam]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --lam {float(lam)!r} ")


def test_phase_reports_a_large_finite_coupling(capsys):
    assert main(["phase", "--lam", "1e150"]) == 0
    assert "phase: III" in capsys.readouterr().out.splitlines()
