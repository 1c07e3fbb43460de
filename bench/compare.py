"""Compare two result sets of the benchmark, for example parent and change.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records that `run.py --save DIR` wrote.  Per
workload and metric it prints each side's median and quartiles, their
spread (quartile distance over the median), the pairs the change won
(runs paired by seed, ties count for neither side) and, for the
end-to-end metrics, whether the change's median is within the bound
BENCHMARK.json fixes.  It also compares the share of failed operations.
The exit code is 1 when an end-to-end metric is worse than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """(workload, trace) -> seed -> final result object."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[(record["workload"], record["trace"])][record["seed"]] = record["result"]
    return runs


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def compare(base: dict, change: dict, spec: dict, out=print) -> bool:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        a_runs, b_runs = base[key], change[key]
        out(f"\n{workload} (trace {trace}): {len(a_runs)} base runs, {len(b_runs)} change runs")
        for side, runs in (("base", a_runs), ("change", b_runs)):
            attempted = sum(r["attempted"] for r in runs.values())
            failed = sum(r["failed"] for r in runs.values())
            out(f"  {side}: failed {failed} of {attempted} operations")
        out(f"  {'metric':22s} {'base q1/med/q3':>26s} {'change q1/med/q3':>26s} "
            f"{'spread b/c':>13s} {'won':>7s} {'worse':>8s}  verdict")
        for name, meta in metrics.items():
            a = [r["metrics"][name]["value"] for r in a_runs.values() if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs.values() if name in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            sign = 1.0 if meta["better"] == "lower" else -1.0
            seeds = set(a_runs) & set(b_runs)
            won = sum(
                sign * (b_runs[s]["metrics"][name]["value"] - a_runs[s]["metrics"][name]["value"]) < 0
                for s in seeds
            )
            worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            spreads = "/".join(
                _fmt((q[2] - q[0]) / q[1]) if q[1] else "-" for q in (qa, qb)
            )
            verdict = ""
            if "bound" in meta:
                within = worse <= meta["bound"]
                ok &= within
                verdict = f"{'within' if within else 'WORSE than'} bound {meta['bound']}"
            out(f"  {name:22s} {'/'.join(map(_fmt, qa)):>26s} {'/'.join(map(_fmt, qb)):>26s} "
                f"{spreads:>13s} {won:>3d}/{len(seeds):<3d} {worse:+8.1%}  {verdict}")
    return ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return 0 if compare(load(argv[0]), load(argv[1]), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
