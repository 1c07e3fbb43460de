"""udspin benchmark: times the public entry points from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S     # every workload, both modes
    python3 bench/run.py ... --save DIR     # keep the full record (and spans) in DIR

Untraced (--trace 0), a run starts SETUP_REPEATS fresh interpreters one
after another; each imports udspin from ./src and does the workload's
first point.  The last one then repeats the whole task (sweep or surface,
including render, write and re-read validation) for --seconds.  It
reports, as end-to-end metrics, the median set-up time, the median task
time and the largest resident set of any of those processes.

Traced (--trace 1), one process does the first point and then alternates
untraced and traced tasks, with spans recorded around every public
udspin function (see tracing.py); a fresh process then runs the same task
through udspin.cli.main.  It reports the per-layer metrics.

Every table the program writes is checked against computations made
apart from it (see reference.py) after the timed processes have ended.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a failed check exits with 1.
BLAS threading is left as the environment sets it and is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Worker processes of one run end within this many seconds or the run
#: fails; the checks after them stay well inside a 180-second limit.
RUN_BUDGET_S = 160.0
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy),
        "scipy_openblas": _blas_version(scipy),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


class Runner:
    """Spawns worker processes for one run, within the run's time budget."""

    def __init__(self, spec: dict, workdir: Path, deadline: float):
        self.spec, self.workdir, self.deadline = spec, workdir, deadline

    def spawn(self, mode: str, seconds: float | None = None):
        """Run worker.py MODE; returns (last-line JSON or None, start, end)."""
        cmd = [sys.executable, str(HERE / "worker.py"), mode, json.dumps(self.spec), str(self.workdir)]
        if seconds is not None:
            cmd.append(repr(seconds))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for the {mode} process")
        start = time.monotonic()
        # a new process group, so a timeout also ends the pool workers it forked
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} process exceeded the run budget") from exc
        end = time.monotonic()
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n{stderr[-3000:]}")
        result = json.loads(stdout.strip().splitlines()[-1]) if mode != "cli" else None
        return result, start, end


def check_tables(spec: dict, tables: list) -> list:
    """Content checks on the first table; byte identity of every other one."""
    import reference

    rows = reference.read_table(tables[0])
    if spec["kind"] == "sweep":
        expected = reference.ground_energies(spec["n"], spec["epsilon"], spec["check_lambdas"])
        failures = reference.check_sweep(spec, rows, expected)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        from udspin.rdm import dcat_two_qudit_purity

        failures = reference.check_surface(spec, rows, dcat_two_qudit_purity)
    for other in tables[1:]:
        failures += reference.check_identical(tables[0], other, Path(other).stem)
    return failures


def run_untraced(runner: Runner, seconds: float):
    setups, rss = [], []
    for _ in range(workloads.SETUP_REPEATS - 1):
        result, start, _ = runner.spawn("setup")
        setups.append(result["ready"] - start)
        rss.append(result["rss_mb"])
    result, start, _ = runner.spawn("run", seconds)
    setups.append(result["ready"] - start)
    rss.append(result["rss_mb"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(result["tasks"]),
        "peak_rss_mb": max(rss),
    }
    detail = {"setups": setups, "tasks": result["tasks"], "rss_mb": rss}
    return metrics, result["rows"], result["tables"], detail


def run_traced(runner: Runner, seconds: float):
    result, _, _ = runner.spawn("trace", seconds)
    _, start, end = runner.spawn("cli")
    metrics = dict(result["metrics"], **{"cli.cold_s": end - start})
    tables = result["tables"] + [str(runner.workdir / "cli.csv")]
    if result["parallel"]:
        tables.append(result["parallel"])
    detail = {"spans": result["spans"], "rss_mb": [result["rss_mb"]]}
    return metrics, result["rows"] + result["task_rows"], tables, detail


def run_one(name: str, seed: int, seconds: float, trace: int, scale: str, save: Path | None) -> dict:
    """One run of one workload; returns the final result object."""
    if not (ROOT / "src" / "udspin" / "__init__.py").is_file():
        raise BenchError(f"no udspin sources under {ROOT / 'src'}")
    units = _metric_units()[trace]
    spec = workloads.spec(name, seed, scale)
    workdir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(spec, workdir, time.monotonic() + RUN_BUDGET_S)
    try:
        measure = run_traced if trace else run_untraced
        metrics, attempted, tables, detail = measure(runner, seconds)
        failures = check_tables(spec, tables)
        spans = detail.pop("spans", None)
        if save is not None and spans:
            save.mkdir(parents=True, exist_ok=True)
            shutil.copy(spans, save / f"{name}-seed{seed}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    for failure in failures:
        print(f"CHECK FAILED [{name}]: {failure}", file=sys.stderr)
    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    info = machine()
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, "machine": info, "detail": detail}))
    if save is not None:
        save.mkdir(parents=True, exist_ok=True)
        record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
                  "scale": scale, "machine": info, "detail": detail, "result": final}
        (save / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a toy size, for the benchmark's tests")
    parser.add_argument("--save", type=Path, help="directory that keeps each run's record")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        final = run_one(args.workload, args.seed, args.seconds, args.trace, args.scale, args.save)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced; prints each metric by name and unit."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            try:
                final = run_one(name, args.seed, args.seconds, trace, args.scale, args.save)
            except BenchError as exc:
                print(f"benchmark error [{name}]: {exc}", file=sys.stderr)
                ok = False
                continue
            ok &= final["correct"]
            print(f"{name} trace={trace} correct={final['correct']} "
                  f"attempted={final['attempted']} failed={final['failed']}")
            for key, metric in final["metrics"].items():
                print(f"  {key:22s} {metric['value']:14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
