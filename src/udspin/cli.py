"""Command-line driver: sweeps, phase reports, state reports, surfaces.

Subcommands
-----------
sweep     coupling sweep of ground-state observables -> CSV/JSON table
phase     mean-field phase report for one coupling
state     entropy/squeezing report for one named state, with a
          closed-form vs state-vector cross-check
surface   observable over a real grid of state labels -> table + sidecar
selftest  built-in oracle suite

A flat ``key=value`` config file can prefill any flag of the chosen
subcommand; explicit command-line flags win.  Exit codes: 0 success,
2 configuration/usage error, 3 numerical integrity failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .basis import SymmetricBasis, expval_tables
from .errors import CapacityError, ConfigError, EmptySectorError, IntegrityError
from .lmg import LmgParams, stationary_point, thermo_energy
from .rdm import (
    entropies,
    level_populations,
    one_qudit_rdm_from_tables,
    spectrum_entropies,
    two_qudit_rdm_from_tables,
)
from .selftest import run_selftest
from .squeezing import squeezing_report_from_tables
from .states import (
    dcat,
    dcat_expval_tables,
    dscs,
    dscs_expval_tables,
    nodon,
    nodon_expval_tables,
    representative,
)
from .sweep import (
    SURFACE_COORDS,
    SURFACE_KINDS,
    SURFACE_OBSERVABLES,
    SWEEP_OBSERVABLES,
    SWEEP_SOURCES,
    SurfaceConfig,
    SweepConfig,
    run_sweep,
    write_records,
    write_surface,
)

__all__ = ["build_parser", "load_config", "main", "entry"]

#: Cross-check gate for the state report: closed-form and state-vector
#: moment tables must agree to this absolute tolerance.
STATE_CHECK_TOL = 1e-8

_DEFAULTS = {
    "sweep": dict(
        n=50,
        epsilon=1.0,
        sources=",".join(SWEEP_SOURCES),
        observables=",".join(SWEEP_OBSERVABLES),
        format="csv",
        jobs=1,
    ),
    "phase": dict(epsilon=1.0, lam=1.0),
    "state": dict(kind="dscs", n=10, levels=3),
    "surface": dict(
        n=10,
        epsilon=1.0,
        lam=1.0,
        kind="dcat",
        coords="alpha_beta",
        observable="level_entropy_1",
        a_min=0.0,
        a_max=2.0,
        a_count=41,
        b_min=0.0,
        b_max=2.0,
        b_count=41,
        format="csv",
    ),
    "selftest": {},
}


def _split_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(part) for part in _split_list(text))
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}") from exc


def _parse_complexes(text: str) -> tuple:
    try:
        return tuple(complex(part) for part in _split_list(text))
    except ValueError as exc:
        raise ConfigError(f"bad complex list {text!r}: {exc}") from exc


def load_config(path) -> dict:
    """Flat key=value file; blank lines and #-comments are skipped."""
    data = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep or not key.strip():
                    raise ConfigError(f"{path}:{number}: expected key=value, got {line!r}")
                data[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return data


def build_parser():
    """Returns (parser, registry); registry maps command -> dest -> action."""
    parser = argparse.ArgumentParser(
        prog="udspin",
        description="Collective observables of symmetric D-level systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def register(sub, *args, **kwargs):
        action = sub.add_argument(*args, **kwargs)
        registry[sub.prog.split()[-1]][action.dest] = action
        return action

    def command(name, help_text):
        sub = commands.add_parser(name, help=help_text)
        registry[name] = {}
        sub.set_defaults(command=name)
        register(sub, "--config", help="flat key=value file prefilling any flag")
        return sub

    sweep = command("sweep", "coupling sweep to a CSV/JSON table")
    register(sweep, "--n", type=int, help="particle number (default 50)")
    register(sweep, "--epsilon", type=float, help="level splitting (default 1)")
    register(sweep, "--lambda-min", type=float, help="grid start")
    register(sweep, "--lambda-max", type=float, help="grid end")
    register(sweep, "--lambda-count", type=int, help="grid size")
    register(sweep, "--lambdas", help="explicit comma-separated couplings")
    register(sweep, "--sources", help=f"subset of {','.join(SWEEP_SOURCES)}")
    register(sweep, "--observables", help=f"subset of {','.join(SWEEP_OBSERVABLES)}")
    register(sweep, "--out", help="output path (required)")
    register(sweep, "--format", choices=("csv", "json"), help="table format")
    register(sweep, "--jobs", type=int, help="worker processes (default 1)")

    phase = command("phase", "mean-field phase report for one coupling")
    register(phase, "--epsilon", type=float, help="level splitting (default 1)")
    register(phase, "--lam", type=float, help="coupling (default 1)")

    state = command("state", "entropy/squeezing report for one state")
    register(state, "--kind", choices=("dscs", "dcat", "nodon"), help="state family")
    register(state, "--n", type=int, help="particle number (default 10)")
    register(state, "--levels", type=int, help="level count D (default 3)")
    register(state, "--z", help="comma-separated complex amplitudes, one per level")
    register(state, "--phases", help="comma-separated phases (nodon only)")

    surface = command("surface", "observable over a real grid of state labels")
    register(surface, "--n", type=int, help="particle number (default 10)")
    register(surface, "--epsilon", type=float, help="level splitting (default 1)")
    register(surface, "--lam", type=float, help="coupling for the energy surface")
    register(surface, "--kind", choices=SURFACE_KINDS, help="state family")
    register(surface, "--coords", choices=SURFACE_COORDS, help="grid coordinates")
    register(surface, "--observable", choices=SURFACE_OBSERVABLES)
    register(surface, "--a-min", type=float)
    register(surface, "--a-max", type=float)
    register(surface, "--a-count", type=int)
    register(surface, "--b-min", type=float)
    register(surface, "--b-max", type=float)
    register(surface, "--b-count", type=int)
    register(surface, "--out", help="output path (required)")
    register(surface, "--format", choices=("csv", "json"), help="table format")

    command("selftest", "run the built-in oracle suite")

    return parser, registry


def _merge_config(args, registry) -> None:
    if getattr(args, "config", None) is None:
        return
    actions = registry[args.command]
    for key, raw in load_config(args.config).items():
        dest = key.replace("-", "_")
        if dest == "config" or dest not in actions:
            raise ConfigError(f"unknown config key {key!r} for command {args.command!r}")
        if getattr(args, dest) is not None:
            continue  # explicit flag wins
        action = actions[dest]
        try:
            value = action.type(raw) if action.type is not None else raw
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"config key {key!r}: {value!r} not one of {list(action.choices)}"
            )
        setattr(args, dest, value)


def _fill_defaults(args) -> None:
    for dest, value in _DEFAULTS[args.command].items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require_out(args) -> None:
    if args.out is None:
        raise ConfigError(f"--out is required for {args.command}")


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _resolve_lambdas(args) -> tuple:
    triple = (args.lambda_min, args.lambda_max, args.lambda_count)
    if args.lambdas is not None:
        if any(v is not None for v in triple):
            raise ConfigError("give either --lambdas or --lambda-min/max/count, not both")
        return _parse_floats(args.lambdas)
    if all(v is None for v in triple):
        return ()  # SweepConfig fills in the default grid
    if any(v is None for v in triple):
        raise ConfigError("--lambda-min, --lambda-max and --lambda-count go together")
    if args.lambda_count < 2:
        raise ConfigError("--lambda-count must be at least 2")
    return tuple(
        float(x) for x in np.linspace(args.lambda_min, args.lambda_max, args.lambda_count)
    )


def _cmd_sweep(args) -> int:
    _require_out(args)
    config = SweepConfig(
        n_particles=args.n,
        epsilon=args.epsilon,
        lambdas=_resolve_lambdas(args),
        sources=_split_list(args.sources),
        observables=_split_list(args.observables),
        jobs=args.jobs,
    )
    records = run_sweep(config)
    write_records(records, args.out, args.format)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_phase(args) -> int:
    params = LmgParams(n_particles=3, epsilon=args.epsilon, lam=args.lam)
    point = stationary_point(params)
    print(f"coupling lambda = {_fmt(args.lam)} (epsilon = {_fmt(args.epsilon)})")
    print(f"phase: {point.phase}")
    print(f"alpha0 = {_fmt(point.alpha0)}")
    print(f"beta0 = {_fmt(point.beta0)}")
    print(f"thermodynamic ground energy = {_fmt(float(thermo_energy(params)))}")
    print(
        "critical couplings: "
        f"{_fmt(args.epsilon / 2)} and {_fmt(1.5 * args.epsilon)}"
    )
    return 0


def _state_and_closed_tables(args):
    basis = SymmetricBasis(args.n, args.levels)
    if args.kind == "nodon":
        phases = _parse_floats(args.phases) if args.phases is not None else None
        if phases is not None and len(phases) != args.levels:
            raise ConfigError(f"--phases needs exactly {args.levels} entries")
        state = nodon(basis, phases)
        label = phases if phases is not None else (0.0,) * args.levels
        return state, nodon_expval_tables(args.n, args.levels), label
    if args.z is None:
        if args.levels != 3:
            raise ConfigError("--z is required when --levels != 3")
        z = (1.0, 1.0, 1.0)
    else:
        z = _parse_complexes(args.z)
        if len(z) != args.levels:
            raise ConfigError(f"--z needs exactly {args.levels} entries")
    if args.kind == "dscs":
        return dscs(basis, z), dscs_expval_tables(z, args.n), z
    try:
        z = tuple(complex(v) for v in representative(z))
    except ValueError as exc:
        raise ConfigError(f"bad --z for dcat: {exc}") from exc
    return dcat(basis, z), dcat_expval_tables(z, args.n), z


def _cmd_state(args) -> int:
    if args.n < 3:
        raise ConfigError("--n must be at least 3 for the two-atom reduction")
    state, closed, label = _state_and_closed_tables(args)
    n, d = args.n, args.levels
    print(f"state: {args.kind}  N={n}  D={d}  label={label}")
    S_state, Q_state = expval_tables(state)
    for i in range(1, d + 1):
        report = spectrum_entropies(level_populations(state, i), "level", n, d)
        print(
            f"level {i}: purity={_fmt(report.purity)} linear={_fmt(report.linear)}"
            f" von_neumann={_fmt(report.von_neumann)}"
        )
    for title, kind, rho in (
        ("one atom", "one_atom", one_qudit_rdm_from_tables(S_state, n)),
        ("two atoms", "two_atom", two_qudit_rdm_from_tables(S_state, Q_state, n)),
    ):
        report = entropies(rho, kind, n, d)
        print(
            f"{title}: purity={_fmt(report.purity)} linear={_fmt(report.linear)}"
            f" von_neumann={_fmt(report.von_neumann)}"
        )
    squeezing = squeezing_report_from_tables(Q_state, n)
    pairs = " ".join(
        f"xi2_{i}{j}={_fmt(value)}" for (i, j), value in sorted(squeezing.pairwise.items())
    )
    print(f"squeezing: {pairs} total={_fmt(squeezing.total)}")
    S_closed, Q_closed = closed
    deviation = max(
        float(np.max(np.abs(S_closed - S_state))),
        float(np.max(np.abs(Q_closed - Q_state))),
    )
    print(f"closed-form vs state-vector max deviation = {deviation:.3e}")
    if deviation > STATE_CHECK_TOL:
        raise IntegrityError(
            f"closed-form tables deviate from the state vector by {deviation:.3e}"
        )
    return 0


def _cmd_surface(args) -> int:
    _require_out(args)
    config = SurfaceConfig(
        n_particles=args.n,
        epsilon=args.epsilon,
        lam=args.lam,
        kind=args.kind,
        coords=args.coords,
        observable=args.observable,
        a_min=args.a_min,
        a_max=args.a_max,
        a_count=args.a_count,
        b_min=args.b_min,
        b_max=args.b_max,
        b_count=args.b_count,
    )
    sidecar = write_surface(config, args.out, args.format)
    rows = config.validated().a_count * config.validated().b_count
    print(f"wrote {rows} rows to {args.out} (stationary curve: {sidecar})")
    return 0


def _cmd_selftest(args) -> int:
    return 3 if run_selftest(print) else 0


_HANDLERS = {
    "sweep": _cmd_sweep,
    "phase": _cmd_phase,
    "state": _cmd_state,
    "surface": _cmd_surface,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _merge_config(args, registry)
        _fill_defaults(args)
        return _HANDLERS[args.command](args)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, EmptySectorError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
