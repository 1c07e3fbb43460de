"""Fast tests of the benchmark itself: python3 -m pytest bench

Every workload runs at a toy size in both modes and passes its checks;
tables with one perturbed energy or entropy are rejected; a directory
without the program's sources gives no result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402

import udspin  # noqa: E402
from udspin.rdm import dcat_two_qudit_purity  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == wanted


def test_workloads_match_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_seed_fixes_inputs():
    assert workloads.spec("ground-n400", 7) == workloads.spec("ground-n400", 7)
    assert workloads.spec("ground-n400", 7) != workloads.spec("ground-n400", 8)
    spec = workloads.spec("sweep-n50", 7)
    assert {workloads.phase_of(lam, spec["epsilon"]) for lam in spec["check_lambdas"]} == {
        "I", "II", "III"
    }


def _rewrite(path: Path, rows: list) -> list:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return reference.read_table(path)


def _sweep_table(tmp_path: Path, name: str):
    spec = workloads.spec(name, 5, "tiny")
    config = udspin.SweepConfig(n_particles=spec["n"], epsilon=spec["epsilon"],
                                lambdas=tuple(spec["lambdas"] or ()))
    path = tmp_path / "sweep.csv"
    udspin.write_records(udspin.run_sweep(config), path)
    expected = reference.ground_energies(spec["n"], spec["epsilon"], spec["check_lambdas"])
    return spec, path, expected


@pytest.mark.parametrize("name", ["sweep-n50", "ground-n400"])
def test_perturbed_energy_is_rejected(tmp_path, name):
    spec, path, expected = _sweep_table(tmp_path, name)
    rows = reference.read_table(path)
    assert reference.check_sweep(spec, rows, expected) == []
    k = spec["grid"].index(spec["check_lambdas"][-1])
    rows[2 * k]["energy"] = repr(float(rows[2 * k]["energy"]) + 1e-7)
    assert reference.check_sweep(spec, _rewrite(path, rows), expected)


def test_energy_above_variational_is_rejected(tmp_path):
    spec, path, expected = _sweep_table(tmp_path, "sweep-n50")
    rows = reference.read_table(path)
    unchecked = next(k for k, lam in enumerate(spec["grid"]) if lam not in expected)
    rows[2 * unchecked]["energy"] = repr(float(rows[2 * unchecked + 1]["energy"]) + 1e-6)
    failures = reference.check_sweep(spec, _rewrite(path, rows), expected)
    assert any("E_variational" in failure for failure in failures)


def test_reference_energies_match_large_n_limit():
    n, eps = 200, 1.0
    energies = reference.ground_energies(n, eps, [0.0, 1.0, 3.0])
    assert energies[0.0] == pytest.approx(-eps, abs=1e-12)
    for lam, energy in energies.items():
        assert energy <= reference.thermo_energy(lam, eps) + 1e-12
        assert abs(energy - reference.thermo_energy(lam, eps)) < 2.0 / n


def test_perturbed_entropy_is_rejected(tmp_path):
    spec = workloads.spec("surface-dcat-n100", 5, "tiny")
    config = udspin.SurfaceConfig(n_particles=spec["n"], kind="dcat", observable="two_atom",
                                  a_max=spec["a_max"], a_count=spec["count"],
                                  b_max=spec["b_max"], b_count=spec["count"])
    path = tmp_path / "surface.csv"
    udspin.write_surface(config, path)
    rows = reference.read_table(path)
    assert reference.check_surface(spec, rows, dcat_two_qudit_purity) == []
    ia, ib = spec["check_nodes"][1]
    count = spec["count"]
    perturbed = [dict(row) for row in rows]
    perturbed[ia * count + ib]["value"] = repr(float(rows[ia * count + ib]["value"]) + 1e-6)
    assert reference.check_surface(spec, _rewrite(path, perturbed), dcat_two_qudit_purity)
    rows[0]["value"] = "1e-17"
    assert reference.check_surface(spec, _rewrite(path, rows), dcat_two_qudit_purity)


def test_changed_byte_is_rejected(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("x\n1\n")
    b.write_text("x\n1\n")
    assert reference.check_identical(a, b, "copy") == []
    b.write_text("x\n2\n")
    assert reference.check_identical(a, b, "copy")


def test_tracer_restores_the_program():
    from tracing import Tracer

    original = udspin.sweep.ground_state
    tracer = Tracer()
    tracer.install()
    assert udspin.sweep.ground_state is not original
    udspin.run_sweep(replace(udspin.SweepConfig(n_particles=6), lambdas=(1.0,)))
    tracer.uninstall()
    assert udspin.sweep.ground_state is original
    names = {span.name for span in tracer.spans}
    assert {"sweep.run_sweep", "lmg.ground_state", "basis.expval_tables"} <= names


def test_directory_without_sources_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    proc = _run(tmp_path, "--workload", "sweep-n50", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
