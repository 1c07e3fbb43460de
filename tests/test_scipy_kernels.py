"""A sweep loads scipy's compiled kernels by file, not scipy's packages.

basis._scipy_extension loads scipy.sparse._sparsetools, scipy.linalg._flapack
and scipy.special._special_ufuncs from their extension files, registered
under their full names so that a later package import reuses them; where no
file is found it imports the module through its package.  The solve path
lays out each sector's CSR pattern with numpy and holds H as a three-array
_Csr, whether or not scipy.sparse is loaded.  Oracles: scipy's sparse
arithmetic on the move tables (lmg._sector_structure, lmg._workspace), and
the same solves with every product taken by scipy's csr_matrix.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import udspin
import udspin.basis as basis
import udspin.lmg as lmg
from udspin.basis import SymmetricBasis, occupation_unrank
from udspin.lmg import LmgParams, ground_state

SRC = str(Path(udspin.__file__).resolve().parents[1])

KERNELS = ("scipy.sparse._sparsetools", "scipy.linalg._flapack", "scipy.special._special_ufuncs")
PACKAGES = ("scipy.sparse", "scipy.linalg", "scipy.special")

_REPORT = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
_SWEEP = "import sys\nfrom udspin.cli import main\nassert main(sys.argv[1:]) == 0\n"


def _fresh(code: str, *args: str) -> str:
    """The last line of what `code` prints in a new interpreter that imports udspin from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout.splitlines()[-1]


def test_cold_sweep_loads_the_kernel_modules_and_no_scipy_package(tmp_path):
    loaded = eval(_fresh(_SWEEP + _REPORT, "sweep", "--n", "50", "--out", str(tmp_path / "s.csv")))
    assert not set(PACKAGES) & set(loaded)
    assert set(KERNELS) <= set(loaded)


_SAME_OBJECTS = """
import importlib
import udspin.lmg as lmg
bound = {name: sys.modules[name] for name in %r}
packages = [importlib.import_module(name) for name in ("scipy.sparse", "scipy.linalg", "scipy.special")]
sparsetools, flapack, ufuncs = (importlib.import_module(name) for name in bound)
print(
    all(sys.modules[name] is module for name, module in bound.items()),
    [sparsetools, flapack, ufuncs] == list(bound.values()),
    lmg.csr_matvec is sparsetools.csr_matvec,
    lmg.dstebz is flapack.dstebz is packages[1].lapack.dstebz,
    lmg.dstein is flapack.dstein is packages[1].lapack.dstein,
    packages[2].gammaln is ufuncs.gammaln,
)
""" % (KERNELS,)


def test_packages_imported_after_a_sweep_reuse_the_kernel_modules(tmp_path):
    argv = ("sweep", "--n", "10", "--out", str(tmp_path / "s.csv"))
    assert _fresh(_SWEEP + _SAME_OBJECTS, *argv) == "True True True True True True"


_NO_FILES = "import udspin.basis\nudspin.basis._extension_file = lambda name: None\n"


def test_without_the_files_a_sweep_imports_the_packages_and_keeps_its_bytes(tmp_path):
    by_file, by_package = tmp_path / "file.csv", tmp_path / "package.csv"
    argv = ("sweep", "--n", "10", "--out")
    loaded = eval(_fresh(_SWEEP + _REPORT, *argv, str(by_file)))
    assert not set(PACKAGES) & set(loaded)
    loaded = eval(_fresh(_NO_FILES + _SWEEP + _REPORT, *argv, str(by_package)))
    assert set(PACKAGES) <= set(loaded)
    assert by_file.read_bytes() == by_package.read_bytes()


@pytest.mark.parametrize("name", KERNELS)
def test_each_kernel_module_is_found_by_file_in_the_installed_scipy(name):
    # a scipy release that moves one of them fails here, rather than
    # silently paying for its package imports again
    path = basis._extension_file(name)
    assert path is not None, f"{name} has no extension file in this scipy"
    assert os.path.samefile(path, importlib.import_module(name).__file__)


@pytest.mark.parametrize("n", [3, 400])
@pytest.mark.parametrize("sector", [(0, 0), (0, 1), (1, 0), (1, 1), "full"])
def test_numpy_pattern_equals_the_scipy_laid_one(n, sector):
    if sector == "full":
        _, diag, coupling = lmg._workspace(n)
    else:
        _, _, diag, coupling = lmg._sector_structure(n, sector)
    has_diag = diag != 0
    probe = sp.diags(has_diag * 1.0) - coupling
    want = (probe.indptr, probe.indices, probe.data > 0, has_diag, diag, coupling.data)
    got = lmg._pattern.__wrapped__(n, sector)
    for name, a, b in zip(("indptr", "indices", "on_diag", "has_diag", "diag", "couplings"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable, name


def _solves(n, sector):
    params = LmgParams(n_particles=n, lam=1.5, epsilon=1.3)
    single = ground_state(params, sector)
    stack = ground_state(params, sector, lams=(0.0, 0.7, 3.0))
    return [(np.float64(r.energy), r.state.coeffs) for r in [single, *stack]]


def _scipy_product(n_row, n_col, indptr, indices, data, vec, out):
    # eigsh's product, taken by scipy's csr_matrix on the same arrays (eigsh
    # hands the kernel zeros, as scipy's own product starts from)
    out.reshape(-1)[:] = sp.csr_matrix((data, indices, indptr), shape=(n_row, n_col)) @ vec.ravel()


@pytest.mark.parametrize("n, sector", [(50, "even"), (51, (1, 0)), (20, "full")])
def test_solves_with_h_as_csr_arrays_have_the_bytes_of_scipy_matrices(monkeypatch, n, sector):
    with monkeypatch.context() as patch:
        patch.setattr(lmg, "csr_matvec", _scipy_product)
        want = _solves(n, sector)
    with monkeypatch.context() as patch:
        patch.delitem(sys.modules, "scipy.sparse")  # as in a cold sweep
        got = _solves(n, sector)
        assert "scipy.sparse" not in sys.modules
    for (e1, c1), (e2, c2) in zip(got, want):
        assert e1.tobytes() == e2.tobytes() and c1.tobytes() == c2.tobytes()


@pytest.mark.parametrize("lam", [0.0, 2.5])
def test_csr_arrays_multiply_as_scipy_does(lam):
    got = lmg._hamiltonian(LmgParams(n_particles=30, lam=lam), "full")
    want = sp.csr_matrix((got.data, got.indices, got.indptr), shape=got.shape)
    assert type(got) is lmg._Csr and got.nnz == want.nnz
    vec = np.linspace(-1.0, 2.0, want.shape[0])
    assert (got @ vec).tobytes() == (want @ vec).tobytes()
    with pytest.raises(ValueError, match="need a vector of length"):
        got @ vec[1:]


@pytest.mark.parametrize("lams", [None, (0.0, 0.7, 3.0)])
def test_with_scipy_sparse_loaded_ground_state_hands_eigsh_only_csr_arrays(monkeypatch, lams):
    assert "scipy.sparse" in sys.modules
    seen, real = [], lmg.eigsh

    def recording(ham, **kwargs):
        seen.extend(ham if isinstance(ham, list) else [ham])
        return real(ham, **kwargs)

    monkeypatch.setattr(lmg, "eigsh", recording)
    ground_state(LmgParams(n_particles=20, lam=1.5), lams=lams)
    assert len(seen) == (1 if lams is None else len(lams))
    assert all(type(ham) is lmg._Csr for ham in seen)


def _scipy_imports(tree: ast.AST, where: str):
    """Qualified names of the functions (or the module) that import scipy,
    outside `if TYPE_CHECKING:` blocks."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if not node.level else []
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield where
        inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scipy_imports(node, f"{where}.{node.name}" if inner else where)


def test_scipy_is_imported_only_where_a_scipy_matrix_is_made():
    found = set()
    for path in sorted(Path(udspin.__file__).parent.glob("*.py")):
        found.update(_scipy_imports(ast.parse(path.read_text()), path.stem))
    assert found == {"lmg._assemble", "lmg.build_hamiltonian"}


def test_unrank_builds_no_occupation_table():
    large = SymmetricBasis(2000, 3)
    assert np.array_equal(large.unrank(5), occupation_unrank(5, 2000, 3))
    assert "occupations" not in vars(large)
    small = SymmetricBasis(7, 4)
    rows = [small.unrank(r) for r in range(small.dim)]
    assert np.array_equal(np.array(rows), small.occupations)
