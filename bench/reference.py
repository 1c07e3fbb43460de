"""Correctness checks of the program's output tables, made apart from udspin.

The ground energies come from the benchmark's own even-sector
Hamiltonian, built from the occupation formula

    H = (eps/N) (n_3 - n_1) - lam/(N(N-1)) sum_{i != j} S_ij^2,
    S_ij^2 |n> = sqrt((n_i+1)(n_i+2) n_j (n_j-1)) |n + 2 e_i - 2 e_j>,

on the states with n_2 and n_3 even, indexed by a (N+1, N+1) table
rather than udspin's ranking, and diagonalized with scipy.  The
infinite-size energy is the benchmark's own copy of the piecewise
closed form.  Every check returns a list of failure messages; an empty
list means the table passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

#: Tables carry 12 significant digits; energies are compared to this
#: absolute tolerance in units of epsilon.
ENERGY_TOL = 1e-9
#: Criterion 5's budget for |E_N - E_inf|, in units of epsilon.
GAP_BUDGET = 0.02
#: Surface entropies against the closed form.
ENTROPY_TOL = 1e-8
#: Above this even-sector size the reference uses Lanczos.
DENSE_LIMIT = 2000


def even_sector(n: int):
    """Occupations (n1, n2, n3) with n2, n3 even, and the coupling matrix."""
    n2, n3 = np.meshgrid(np.arange(0, n + 1, 2), np.arange(0, n + 1, 2), indexing="ij")
    keep = n2 + n3 <= n
    n2, n3 = n2[keep], n3[keep]
    occ = np.stack([n - n2 - n3, n2, n3], axis=1).astype(np.int64)
    index = np.full((n + 1, n + 1), -1, dtype=np.int64)
    index[occ[:, 1], occ[:, 2]] = np.arange(len(occ))
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            src = np.flatnonzero(occ[:, j] >= 2)
            ni = occ[src, i].astype(np.float64)
            nj = occ[src, j].astype(np.float64)
            moved = occ[src].copy()
            moved[:, i] += 2
            moved[:, j] -= 2
            rows.append(index[moved[:, 1], moved[:, 2]])
            cols.append(src)
            vals.append(np.sqrt((ni + 1) * (ni + 2) * nj * (nj - 1)))
    size = len(occ)
    coupling = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return occ, coupling


def ground_energies(n: int, epsilon: float, lambdas) -> dict:
    """Lowest even-sector eigenvalue of H at each coupling."""
    occ, coupling = even_sector(n)
    split = epsilon / n * (occ[:, 2] - occ[:, 0]).astype(np.float64)
    out = {}
    for lam in lambdas:
        ham = sp.diags(split) - lam / (n * (n - 1)) * coupling
        if ham.shape[0] <= DENSE_LIMIT:
            value = scipy.linalg.eigh(ham.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
        else:
            v0 = np.ones(ham.shape[0])
            value = eigsh(ham, k=1, which="SA", v0=v0, return_eigenvectors=False)[0]
        out[lam] = float(value)
    return out


def thermo_energy(lam: float, epsilon: float) -> float:
    """Infinite-size ground energy density: transitions at eps/2 and 3 eps/2."""
    if lam <= epsilon / 2:
        return -epsilon
    if lam <= 3 * epsilon / 2:
        return -((2 * lam + epsilon) ** 2) / (8 * lam)
    return -(4 * lam**2 + 3 * epsilon**2) / (6 * lam)


def read_table(path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_sweep(spec: dict, rows: list, reference: dict) -> list:
    """Sweep table against the grid, the reference energies and physics bounds.

    reference maps each of spec["check_lambdas"] to its reference energy.
    """
    eps = spec["epsilon"]
    grid = spec["grid"]
    failures = []
    if len(rows) != 2 * len(grid):
        return [f"expected {2 * len(grid)} rows, got {len(rows)}"]
    energies = {}
    for k, lam in enumerate(grid):
        pair = rows[2 * k : 2 * k + 2]
        if [row["source"] for row in pair] != ["numerical", "variational"]:
            failures.append(f"lambda #{k}: sources {[row['source'] for row in pair]}")
            continue
        for row in pair:
            if not _near(float(row["lambda"]), lam, 1e-11 * max(1.0, lam)):
                failures.append(f"lambda #{k}: {row['lambda']} != {lam!r}")
        e_num, e_var = float(pair[0]["energy"]), float(pair[1]["energy"])
        energies[lam] = e_num
        # variational principle; the slack covers 12-digit rounding only
        if e_num > e_var + 1e-11 * eps:
            failures.append(f"lambda = {lam!r}: E_numerical {e_num!r} > E_variational {e_var!r}")
    for lam, expected in reference.items():
        got = energies.get(lam)
        if got is None or not _near(got, expected, ENERGY_TOL * eps):
            failures.append(f"lambda = {lam!r}: energy {got!r} != reference {expected!r}")
    if "gap_lambda" in spec:
        lam = spec["gap_lambda"]
        gap = abs(energies.get(lam, math.inf) - thermo_energy(lam, eps))
        if not gap < GAP_BUDGET * eps:
            failures.append(f"lambda = {lam!r}: |E_N - E_inf| = {gap!r} >= {GAP_BUDGET} eps")
    return failures


def surface_axes(spec: dict):
    count = spec["count"]
    return (
        np.linspace(0.0, spec["a_max"], count),
        np.linspace(0.0, spec["b_max"], count),
    )


def check_surface(spec: dict, rows: list, two_atom_purity) -> list:
    """Surface table against the grid and the closed-form cat purity.

    two_atom_purity(z, n) is the closed-form tr(rho2^2) of the even cat
    state; the table's linear entropy must equal 9/8 (1 - purity).
    """
    a_axis, b_axis = surface_axes(spec)
    count = spec["count"]
    if len(rows) != count * count:
        return [f"expected {count * count} rows, got {len(rows)}"]
    failures = []
    for ia, ib in spec["check_nodes"]:
        row = rows[ia * count + ib]
        a, b = float(a_axis[ia]), float(b_axis[ib])
        if not (_near(float(row["alpha"]), a, 1e-11) and _near(float(row["beta"]), b, 1e-11)):
            failures.append(f"node ({ia}, {ib}): coordinates {row['alpha']}, {row['beta']}")
            continue
        value = float(row["value"])
        if (ia, ib) == (0, 0):
            if value != 0.0:
                failures.append(f"origin: two-atom entropy {row['value']} is not 0")
            continue
        expected = 9.0 / 8.0 * (1.0 - two_atom_purity((1.0, a, b), spec["n"]))
        if not _near(value, expected, ENTROPY_TOL):
            failures.append(f"node ({a!r}, {b!r}): entropy {value!r} != closed form {expected!r}")
    return failures


def check_identical(reference_path, other_path, what: str) -> list:
    with open(reference_path, "rb") as a, open(other_path, "rb") as b:
        same = a.read() == b.read()
    return [] if same else [f"{what}: {other_path} differs from {reference_path}"]
