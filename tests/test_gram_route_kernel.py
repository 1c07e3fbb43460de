"""The Gram moment route takes zgemm from scipy.linalg._fblas, loaded by file.

A state on no one parity sector (a coherent state, say) gets its moment
tables from one Gram matrix product, BLAS zgemm.  basis._scipy_extension
loads scipy.linalg._fblas from its extension file, so `udspin state` pays
for no scipy.linalg package import.  Oracles: the scipy modules a fresh
interpreter holds after the command, and the command's output when
scipy.linalg was imported first, so zgemm came from the package.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import udspin
import udspin.basis as basis

SRC = str(Path(udspin.__file__).resolve().parents[1])

_STATE = (
    "import sys\nfrom udspin.cli import main\nassert main(sys.argv[1:]) == 0\n"
    "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
)
_SAME_OBJECT = (
    "import scipy.linalg.blas\n"
    "print(scipy.linalg.blas.zgemm is sys.modules['scipy.linalg._fblas'].zgemm)\n"
)


def _fresh(code: str, *args: str) -> list:
    """The lines that `code` prints in a new interpreter that imports udspin from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout.splitlines()


def test_fblas_is_found_by_file_in_the_installed_scipy():
    path = basis._extension_file("scipy.linalg._fblas")
    assert path is not None, "scipy.linalg._fblas has no extension file in this scipy"
    assert os.path.samefile(path, importlib.import_module("scipy.linalg._fblas").__file__)


def test_state_report_loads_no_scipy_linalg_and_keeps_its_bytes():
    argv = ("state", "--kind", "dscs", "--n", "10")
    *report, loaded, same = _fresh(_STATE + _SAME_OBJECT, *argv)
    assert "scipy.linalg._fblas" in eval(loaded)
    assert "scipy.linalg" not in eval(loaded)
    assert same == "True"  # the package, imported after, reuses the module loaded by file
    *by_package, loaded = _fresh("import scipy.linalg\n" + _STATE, *argv)
    assert "scipy.linalg" in eval(loaded)
    assert report == by_package and report[0].startswith("state: dscs  N=10")
