"""One benchmark process: imports udspin from the checkout and does the work.

    python3 bench/worker.py MODE SPEC_JSON WORKDIR [SECONDS]

MODE is one of
  setup  import udspin and do the workload's first point, then report;
  run    setup, then repeat the whole workload task for SECONDS;
  trace  setup traced, then alternate untraced and traced tasks for
         SECONDS, then the untraced probes (assembly, jobs=2);
  cli    run the task once through udspin.cli.main, as a user types it.

The last line of standard output is one JSON object for run.py.  The
first point fills the per-N caches (basis, Hamiltonian, sector), so the
timed tasks that follow measure a warm process.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import udspin  # noqa: E402  (path set above)

if not Path(udspin.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"udspin imported from {udspin.__file__}, not from {SRC}")


def _peak_rss_mb() -> float:
    """Largest resident set of this process and of any pool worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Workload:
    """The workload's first point and task, calling udspin through its namespace.

    Calls go through module attributes at call time, so a tracer that
    swaps those attributes sees them.
    """

    def __init__(self, spec: dict, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        n = spec["n"]
        if spec["kind"] == "sweep":
            self.config = udspin.SweepConfig(
                n_particles=n, epsilon=spec["epsilon"], lambdas=tuple(spec["lambdas"] or ())
            )
            self.rows = 2 * len(spec["grid"])
        else:
            count = spec["count"]
            self.config = udspin.SurfaceConfig(
                n_particles=n,
                kind="dcat",
                observable="two_atom",
                a_max=spec["a_max"],
                a_count=count,
                b_max=spec["b_max"],
                b_count=count,
            )
            self.rows = count * count

    def first_point(self) -> None:
        if self.spec["kind"] == "sweep":
            udspin.run_sweep(replace(self.config, lambdas=(self.spec["grid"][0],)))
        else:  # the smallest grid surface_table accepts
            udspin.surface_table(replace(self.config, a_count=2, b_count=2))

    def task(self, name: str, jobs: int = 1) -> tuple:
        """Run the whole task once, writing table NAME; returns (seconds, path)."""
        path = str(self.workdir / f"{name}.csv")
        start = time.perf_counter()
        if self.spec["kind"] == "sweep":
            records = udspin.run_sweep(replace(self.config, jobs=jobs))
            udspin.write_records(records, path)
        else:
            udspin.write_surface(self.config, path)
        return time.perf_counter() - start, path

    def cli_argv(self, path: str) -> list:
        spec = self.spec
        if spec["kind"] == "sweep":
            argv = ["sweep", "--n", str(spec["n"]), "--epsilon", repr(spec["epsilon"])]
            if spec["lambdas"]:
                argv += ["--lambdas", ",".join(repr(lam) for lam in spec["lambdas"])]
            return argv + ["--out", path]
        count = str(spec["count"])
        return [
            "surface", "--n", str(spec["n"]), "--kind", "dcat", "--observable", "two_atom",
            "--a-max", repr(spec["a_max"]), "--a-count", count,
            "--b-max", repr(spec["b_max"]), "--b-count", count,
            "--out", path,
        ]


def run(work: Workload, seconds: float) -> dict:
    work.first_point()
    ready = time.monotonic()
    times, tables = [], []
    deadline = time.perf_counter() + seconds
    # start another task only if one more of the last one's length still fits
    while not times or time.perf_counter() + times[-1] <= deadline:
        elapsed, path = work.task(f"table-{len(times)}")
        times.append(elapsed)
        tables.append(path)
    return {"ready": ready, "tasks": times, "tables": tables, "rows": work.rows * len(times),
            "rss_mb": _peak_rss_mb()}


def trace(work: Workload, seconds: float) -> dict:
    from tracing import Tracer, process_metrics, task_metrics

    tracer = Tracer()
    tracer.install()
    work.first_point()
    tracer.uninstall()
    untraced, traced, per_task, tables = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + untraced[-1] + traced[-1] <= deadline:
        elapsed, path = work.task(f"plain-{len(untraced)}")
        untraced.append(elapsed)
        tables.append(path)
        tracer.install()
        first = len(tracer.spans)
        elapsed, path = work.task(f"traced-{len(traced)}")
        tracer.uninstall()
        traced.append(elapsed)
        tables.append(path)
        per_task.append(
            task_metrics(tracer.spans, first, len(tracer.spans), elapsed, udspin.lmg.DENSE_EIG_LIMIT)
        )
    tracer.write(work.workdir / "spans.jsonl")
    metrics = process_metrics(tracer.spans)
    for name in per_task[0]:  # median_low keeps counts whole
        metrics[name] = statistics.median_low(task[name] for task in per_task)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    n, eps = work.spec["n"], work.spec.get("epsilon", 1.0)
    basis = udspin.SymmetricBasis(n, 3)
    params = udspin.LmgParams(n_particles=n, lam=1.0, epsilon=eps)
    start = time.perf_counter()
    udspin.build_hamiltonian(basis, params)
    metrics["lmg.assemble_s"] = time.perf_counter() - start

    rows = work.rows * (len(untraced) + len(traced))
    parallel = None
    if work.spec["kind"] == "sweep":
        elapsed, parallel = work.task("jobs2", jobs=2)
        metrics["sweep.speedup"] = statistics.median(untraced) / elapsed
        rows += work.rows
    else:  # surface_table has no parallel path
        metrics["sweep.speedup"] = 0.0
    return {"metrics": metrics, "tables": tables, "parallel": parallel, "rows": rows,
            "task_rows": work.rows, "spans": str(work.workdir / "spans.jsonl"),
            "rss_mb": _peak_rss_mb()}


def main(argv: list) -> int:
    mode, spec, workdir = argv[0], json.loads(argv[1]), Path(argv[2])
    seconds = float(argv[3]) if len(argv) > 3 else 0.0
    work = Workload(spec, workdir)
    if mode == "cli":
        from udspin.cli import main as cli_main

        return cli_main(work.cli_argv(str(workdir / "cli.csv")))
    if mode == "setup":
        work.first_point()
        result = {"ready": time.monotonic(), "rss_mb": _peak_rss_mb()}
    elif mode == "run":
        result = run(work, seconds)
    elif mode == "trace":
        result = trace(work, seconds)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
