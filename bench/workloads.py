"""Workload definitions: what each workload runs and what its seed chooses.

Standard library only, so the orchestrating process can build the run
specification without importing numpy or udspin.  A specification is a
plain JSON-serializable dict shared by run.py (which spawns and checks)
and worker.py (which imports udspin and does the work).

The seed never changes how much work a run does.  It chooses:

* the level splitting epsilon of the sweeps, uniform in [0.5, 2];
  energies scale with epsilon, so every seed gives distinct tables of
  the same cost;
* the surface window a_max, b_max, each uniform in [1.5, 2.5] (the
  window always starts at the origin);
* which couplings the independent diagonalization checks (one per
  phase, plus 3 epsilon on the large-N workload), and which surface
  nodes the closed-form check compares.
"""

from __future__ import annotations

import random

# name -> (why, scale -> size parameters)
WORKLOADS = {
    "sweep-n50": (
        "default 121-point sweep at N = 50, dense eigh is most of the time",
        {"full": {"n": 50, "grid": "default"}, "tiny": {"n": 8, "grid": 9}},
    ),
    "ground-n400": (
        "7 couplings at N = 400: Lanczos path, basis and assembly dominate set-up",
        {"full": {"n": 400, "grid": 7}, "tiny": {"n": 80, "grid": 7}},
    ),
    "surface-dcat-n100": (
        "41x41 dcat two-atom entropy surface at N = 100: moment tables, no eigensolver",
        {"full": {"n": 100, "count": 41}, "tiny": {"n": 10, "count": 5}},
    ),
}

#: Fresh interpreters started per run to measure set-up; the one that
#: then runs the timed loop is one of them.
SETUP_REPEATS = 3

#: Surface nodes compared with the closed form per run, besides the origin.
SURFACE_CHECK_NODES = 12


def _default_grid(epsilon: float) -> list:
    """The program's default 121-point grid, rebuilt independently."""
    grid = [6.0 * epsilon * k / 120 for k in range(121)]
    for exact in (0.5 * epsilon, 1.5 * epsilon):
        nearest = min(range(121), key=lambda k: abs(grid[k] - exact))
        grid[nearest] = exact
    return grid


def phase_of(lam: float, epsilon: float) -> str:
    """Infinite-size phase label; boundaries at epsilon/2 and 3 epsilon/2."""
    if lam <= 0.5 * epsilon:
        return "I"
    return "II" if lam <= 1.5 * epsilon else "III"


def _phase_picks(rng: random.Random, grid: list, epsilon: float) -> list:
    """One seed-chosen coupling from each of phases I, II and III."""
    return [
        rng.choice([lam for lam in grid if phase_of(lam, epsilon) == phase])
        for phase in ("I", "II", "III")
    ]


def spec(name: str, seed: int, scale: str = "full") -> dict:
    """The run specification for one workload and seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    size = WORKLOADS[name][1][scale]
    rng = random.Random(f"{name}:{seed}")
    out = {"workload": name, "seed": seed, "scale": scale, "n": size["n"]}
    if name.startswith("surface"):
        count = size["count"]
        a_max = round(rng.uniform(1.5, 2.5), 6)
        b_max = round(rng.uniform(1.5, 2.5), 6)
        nodes = [(0, 0)] + [
            (rng.randrange(count), rng.randrange(count)) for _ in range(SURFACE_CHECK_NODES)
        ]
        out.update(kind="surface", count=count, a_max=a_max, b_max=b_max, check_nodes=nodes)
        return out
    epsilon = round(rng.uniform(0.5, 2.0), 6)
    if size["grid"] == "default":
        lambdas = None  # the program's default grid
        grid = _default_grid(epsilon)
    else:
        count = size["grid"]
        grid = [6.0 * epsilon * k / (count - 1) for k in range(count)]
        lambdas = grid
    checks = _phase_picks(rng, grid, epsilon)
    if name.startswith("ground"):
        three = min(grid, key=lambda lam: abs(lam - 3.0 * epsilon))
        checks.append(three)
        out["gap_lambda"] = three
    out.update(
        kind="sweep",
        epsilon=epsilon,
        lambdas=lambdas,
        grid=grid,
        check_lambdas=sorted(set(checks)),
    )
    return out
