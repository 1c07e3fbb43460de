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
subcommand: each entry is parsed as the flag ``--key=value``, ahead of
the command line, so explicit command-line flags win.  Exit codes: 0 success,
2 configuration/usage error, 3 numerical integrity failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

import numpy as np

from .basis import expval_tables, shared_basis
from .errors import CapacityError, ConfigError, EmptySectorError, IntegrityError, check_integer
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

def _split_list(text: str | None) -> tuple | None:
    if text is None:
        return None  # flag not given
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


def build_parser() -> argparse.ArgumentParser:
    """The udspin parser.  Flags left out parse as None where SweepConfig or
    SurfaceConfig holds the default, so None means "not given"."""
    parser = argparse.ArgumentParser(
        prog="udspin",
        description="Collective observables of symmetric D-level systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key=value file prefilling any flag")
        return sub

    sweep = command("sweep", "coupling sweep to a CSV/JSON table")
    sweep.add_argument("--n", type=int, help="particle number (default 50)")
    sweep.add_argument("--epsilon", type=float, help="level splitting (default 1)")
    sweep.add_argument("--lambda-min", type=float, help="grid start")
    sweep.add_argument("--lambda-max", type=float, help="grid end")
    sweep.add_argument("--lambda-count", type=int, help="grid size")
    sweep.add_argument("--lambdas", help="explicit comma-separated couplings")
    sweep.add_argument("--sources", help=f"subset of {','.join(SWEEP_SOURCES)}")
    sweep.add_argument("--observables", help=f"subset of {','.join(SWEEP_OBSERVABLES)}")
    sweep.add_argument("--out", help="output path (required)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
    sweep.add_argument("--jobs", type=int, help="worker processes (default 1)")

    phase = command("phase", "mean-field phase report for one coupling")
    phase.add_argument("--epsilon", type=float, default=1.0, help="level splitting (default 1)")
    phase.add_argument("--lam", type=float, default=1.0, help="coupling (default 1)")

    state = command("state", "entropy/squeezing report for one state")
    state.add_argument(
        "--kind", choices=("dscs", "dcat", "nodon"), default="dscs", help="state family"
    )
    state.add_argument("--n", type=int, default=10, help="particle number (default 10)")
    state.add_argument("--levels", type=int, default=3, help="level count D (default 3)")
    state.add_argument("--z", help="comma-separated complex amplitudes, one per level")
    state.add_argument("--phases", help="comma-separated phases (nodon only)")

    surface = command("surface", "observable over a real grid of state labels")
    surface.add_argument("--n", type=int, help="particle number (default 10)")
    surface.add_argument("--epsilon", type=float, help="level splitting (default 1)")
    surface.add_argument("--lam", type=float, help="coupling for the energy surface")
    surface.add_argument("--kind", choices=SURFACE_KINDS, help="state family")
    surface.add_argument("--coords", choices=SURFACE_COORDS, help="grid coordinates")
    surface.add_argument("--observable", choices=SURFACE_OBSERVABLES)
    surface.add_argument("--a-min", type=float)
    surface.add_argument("--a-max", type=float)
    surface.add_argument("--a-count", type=int)
    surface.add_argument("--b-min", type=float)
    surface.add_argument("--b-max", type=float)
    surface.add_argument("--b-count", type=int)
    surface.add_argument("--out", help="output path (required)")
    surface.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")

    command("selftest", "run the built-in oracle suite")

    return parser


def _config_flags(parser, command: str, path) -> list:
    """The config file's entries as --key=value tokens; a key must name a
    flag of the command exactly, with dashes or underscores."""
    dests = set(vars(parser.parse_args([command]))) - {"command", "config"}
    flags = []
    for key, value in load_config(path).items():
        dest = key.replace("-", "_")
        if dest not in dests:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return flags


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
    check_integer(args.lambda_count, 2, None, "--lambda-count", ConfigError)
    return tuple(
        float(x) for x in np.linspace(args.lambda_min, args.lambda_max, args.lambda_count)
    )


def _given(**fields) -> dict:
    """The config fields a flag or config file set; the rest keep the
    config dataclass defaults."""
    return {name: value for name, value in fields.items() if value is not None}


def _cmd_sweep(args) -> int:
    _require_out(args)
    config = SweepConfig(
        lambdas=_resolve_lambdas(args),
        **_given(
            n_particles=args.n,
            epsilon=args.epsilon,
            sources=_split_list(args.sources),
            observables=_split_list(args.observables),
            jobs=args.jobs,
        ),
    )
    records = run_sweep(config)
    write_records(records, args.out, args.format)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_phase(args) -> int:
    params = LmgParams(n_particles=3, epsilon=args.epsilon, lam=args.lam)
    point = stationary_point(params)
    try:  # every value before the first line, so a refused coupling prints none
        energy = float(thermo_energy(params))
    except OverflowError:  # lam**2 past the float range
        energy = math.inf
    critical = (args.epsilon / 2, 1.5 * args.epsilon)
    if not all(map(math.isfinite, (point.alpha0, point.beta0, energy, *critical))):
        raise ConfigError(f"--lam {args.lam!r} (--epsilon {args.epsilon!r}) is out of range")
    print(f"coupling lambda = {_fmt(args.lam)} (epsilon = {_fmt(args.epsilon)})")
    print(f"phase: {point.phase}")
    print(f"alpha0 = {_fmt(point.alpha0)}")
    print(f"beta0 = {_fmt(point.beta0)}")
    print(f"thermodynamic ground energy = {_fmt(energy)}")
    print(f"critical couplings: {_fmt(critical[0])} and {_fmt(critical[1])}")
    return 0


def _state_and_closed_tables(args):
    basis = shared_basis(args.n, args.levels)
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
    check_integer(args.n, 3, None, "--n (the two-atom reduction)", ConfigError)
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
    if not deviation <= STATE_CHECK_TOL:  # NaN fails
        raise IntegrityError(
            f"closed-form tables deviate from the state vector by {deviation:.3e}"
        )
    return 0


def _cmd_surface(args) -> int:
    _require_out(args)
    flag = {"n_particles": "n"}  # every other SurfaceConfig field has a flag of its name
    names = (field.name for field in fields(SurfaceConfig))
    config = SurfaceConfig(**_given(**{name: getattr(args, flag.get(name, name)) for name in names}))
    sidecar = write_surface(config, args.out, args.format)
    rows = config.a_count * config.b_count
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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # config flags go first: argparse keeps the last value given
            flags = _config_flags(parser, args.command, args.config)
            args = parser.parse_args([args.command, *flags, *argv[1:]])
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, EmptySectorError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
