"""What a fresh interpreter loads, and the solver kernels bound on first use.

Importing udspin loads no scipy module, and neither do the closed-form
commands: the moment surfaces of both kinds, the energy surface and the
phase report.  scipy is imported where it runs (the basis invariants,
the Gram route, the Hamiltonian and the eigensolver), so a sweep still
loads it, and its rows do not depend on when.  lmg binds csr_matvec,
dstebz and dstein on their first read, and eigsh calls whatever is bound
there, so a replacement set before the first solve sees every call.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import udspin

SRC = str(Path(udspin.__file__).resolve().parents[1])

_CLI = "from udspin.cli import main; code = main(sys.argv[1:])"
_REPORT = "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"


def _fresh(code: str, *args: str) -> str:
    """Standard output of `code` run in a new interpreter that imports udspin from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout


def _cli_scipy_modules(*argv: str) -> list:
    """The scipy modules loaded after one CLI command in a new interpreter;
    the report is the last line, after the command's own output."""
    last = _fresh(f"import sys; {_CLI}; {_REPORT}", *argv).splitlines()[-1]
    code, loaded = last.split(" ", 1)
    assert code == "0", argv
    return ast.literal_eval(loaded)


def test_import_loads_no_scipy():
    assert _fresh(f"import sys, udspin; code = 0; {_REPORT}") == "0 []\n"


_SMALL_GRID = ["--n", "10", "--a-count", "3", "--b-count", "3"]


@pytest.mark.parametrize("kind", ["dcat", "dscs"])
@pytest.mark.parametrize("observable", ["one_atom", "two_atom", "squeezing_total", "energy"])
def test_closed_form_surfaces_load_no_scipy(tmp_path, kind, observable):
    argv = ["surface", "--kind", kind, "--observable", observable, *_SMALL_GRID]
    assert _cli_scipy_modules(*argv, "--out", str(tmp_path / "s.csv")) == []


def test_phase_report_loads_no_scipy():
    assert _cli_scipy_modules("phase", "--lam", "1.2") == []


@pytest.mark.parametrize("kind", ["dcat", "dscs"])
def test_level_entropy_surface_loads_special_ufuncs_not_scipy_special(tmp_path, kind):
    # the binomial weights take gammaln and xlogy from the extension module
    # alone: the probe above does see a load, and no package
    argv = ["surface", "--kind", kind, "--observable", "level_entropy_1", *_SMALL_GRID]
    assert _cli_scipy_modules(*argv, "--out", str(tmp_path / "s.csv")) == [
        "scipy.special._special_ufuncs"
    ]


def test_selftest_loads_kernel_modules_and_no_scipy_package():
    # the dense Hamiltonian check scatters the solver's own CSR arrays: no scipy.sparse
    code = "import sys; from udspin.selftest import run_selftest; code = run_selftest(id); "
    failures, loaded = _fresh(code + _REPORT).split(" ", 1)
    assert failures == "0"
    assert ast.literal_eval(loaded) == [
        "scipy.linalg._fblas",
        "scipy.linalg._flapack",
        "scipy.sparse._sparsetools",
        "scipy.special._special_ufuncs",
    ]


_COUNTED_SOLVE = """
import sys
import udspin.lmg as lmg
kernels = {name: getattr(lmg, name) for name in ("csr_matvec", "dstebz", "dstein")}
assert all(map(callable, kernels.values()))
calls = {name: 0 for name in kernels}
def counting(name):
    def kernel(*args):
        calls[name] += 1
        return kernels[name](*args)
    return kernel
sizes, real_ritz = [], lmg._lowest_ritz
def ritz(alphas, off):
    sizes.append(alphas.size)
    return real_ritz(alphas, off)
replacements = {name: counting(name) for name in kernels}
for name, kernel in replacements.items():
    setattr(lmg, name, kernel)
lmg._lowest_ritz = ritz
lmg.ground_state(lmg.LmgParams(n_particles=20, lam=1.5))
assert all(getattr(lmg, name) is kernel for name, kernel in replacements.items())
print(calls["csr_matvec"], calls["dstebz"], sizes[-1], len(sizes))
"""


def test_kernels_read_and_replaced_before_the_first_solve():
    matvecs, bisections, steps, checks = map(int, _fresh(_COUNTED_SOLVE).split())
    # every vector fits the store at N = 20: one matvec per Lanczos step
    assert steps > 1 and matvecs == steps
    assert bisections == checks


_SCIPY_FIRST = "import scipy.linalg, scipy.sparse, scipy.special; "


def test_cold_sweep_bytes_equal_a_sweep_after_scipy_is_loaded(tmp_path):
    argv = ["sweep", "--n", "10"]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    loaded = _fresh(f"import sys; {_CLI}; {_REPORT}", *argv, "--out", str(cold))
    assert "scipy.sparse" in loaded and "scipy.linalg" in loaded
    _fresh(f"import sys; {_SCIPY_FIRST}{_CLI}; sys.exit(code)", *argv, "--out", str(warm))
    assert cold.read_bytes() == warm.read_bytes()
