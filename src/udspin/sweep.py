"""Deterministic coupling sweeps and phase-space surface tables.

A sweep walks a grid of coupling values, obtains for each value the
numerical ground state (sector diagonalization) and/or the variational
even-cat state, and records energy, level and atom linear entropies,
and squeezing parameters -- one row per (coupling, source).  Its
couplings go in blocks: the states of a block are solved one by one,
then each observable is one array pass over all of them.  Output is
reproducible byte for byte: fixed column order, 12-significant-digit
floats, rows sorted by coupling with numerical before variational, and
neither the block size nor a worker pool's fan-out changes a value.

A surface walks a real grid of state labels instead, tabulating one
observable per node for external contour plotting, together with a
sidecar table of the mean-field stationary curve.  Its nodes go in blocks,
each one array pass over closed forms: no node builds a state vector.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .basis import dimension, expval_tables, shared_basis
from .errors import ConfigError, IntegrityError, UdspinError, check_integer, check_range
from .errors import check_ranges
from .lmg import (
    _RESIDUAL_TOL,
    LmgParams,
    _tables_energy,
    energy_surface,
    ground_state,
    stationary_point,
    variational_cat,
)
from .rdm import (
    _spectra,
    level_populations,
    level_weights,
    linear_entropies,
    one_qudit_rdm_from_tables,
    two_qudit_rdm_from_tables,
)
from .squeezing import squeezing_report_from_tables
from .states import _binary_scaled, dcat_expval_tables, dscs_expval_tables

__all__ = [
    "SWEEP_SOURCES",
    "SWEEP_OBSERVABLES",
    "CSV_COLUMNS",
    "SweepConfig",
    "SweepRecord",
    "default_lambda_grid",
    "run_sweep",
    "render_records",
    "write_records",
    "validate_table",
    "SURFACE_KINDS",
    "SURFACE_COORDS",
    "SURFACE_OBSERVABLES",
    "SurfaceConfig",
    "surface_table",
    "stationary_table",
    "write_surface",
]

SWEEP_SOURCES = ("numerical", "variational")
SWEEP_OBSERVABLES = (
    "level_entropy_1",
    "level_entropy_2",
    "level_entropy_3",
    "one_atom",
    "two_atom",
    "squeezing_total",
    "squeezing_pairs",
    "energy",
)


@dataclass(frozen=True)
class SweepRecord:
    """One output row; unselected observables stay None."""

    lam: float
    source: str
    energy: float = None
    L_level_1: float = None
    L_level_2: float = None
    L_level_3: float = None
    L1_atom: float = None
    L2_atom: float = None
    xi2_total: float = None
    xi2_21: float = None
    xi2_31: float = None
    xi2_32: float = None
    alpha0: float = None
    beta0: float = None


_RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))

#: Fixed sweep column order: the SweepRecord fields, with the coupling
#: ``lam`` serialized as "lambda".
CSV_COLUMNS = tuple("lambda" if name == "lam" else name for name in _RECORD_FIELDS)

#: check_range kind of each bounded column; other numeric columns need only be finite.
_COLUMN_KINDS = {
    **dict.fromkeys(("L_level_1", "L_level_2", "L_level_3", "L1_atom", "L2_atom"), "unit"),
    **dict.fromkeys(("xi2_total", "xi2_21", "xi2_31", "xi2_32"), "nonneg"),
}


def default_lambda_grid(epsilon: float = 1.0) -> tuple[float, ...]:
    """121 evenly spaced couplings on [0, 6*epsilon], criticals exact.

    The grid values nearest epsilon/2 and 3*epsilon/2 are snapped to
    those exact floats so both phase boundaries are always sampled.  An
    epsilon whose 6*epsilon is past the float range raises ConfigError.
    """
    if not math.isfinite(6.0 * float(epsilon)):
        raise ConfigError(f"epsilon {epsilon!r} puts the default grid end past the float range")
    grid = np.linspace(0.0, 6.0 * epsilon, 121)
    for exact in (0.5 * epsilon, 1.5 * epsilon):
        grid[int(np.argmin(np.abs(grid - exact)))] = exact
    return tuple(float(x) for x in grid)


def _canonical_subset(requested, universe, what: str) -> tuple[str, ...]:
    if isinstance(requested, str):
        raise ConfigError(f"{what}s must be a sequence of names, not the string {requested!r}")
    seen = set()
    for name in requested:
        if name not in universe:
            raise ConfigError(
                f"unknown {what} {name!r}; choose from {', '.join(universe)}"
            )
        seen.add(name)
    if not seen:
        raise ConfigError(f"at least one {what} is required")
    return tuple(name for name in universe if name in seen)


@dataclass(frozen=True)
class SweepConfig:
    """Validated inputs for one sweep run."""

    n_particles: int = 50
    epsilon: float = 1.0
    lambdas: tuple = ()
    sources: tuple = SWEEP_SOURCES
    observables: tuple = SWEEP_OBSERVABLES
    jobs: int = 1

    def validated(self) -> "SweepConfig":
        """Normalized copy; raises ConfigError on any bad field."""
        check_integer(self.n_particles, 3, None, "n_particles", ConfigError)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("epsilon must be positive and finite")
        check_integer(self.jobs, 1, None, "jobs", ConfigError)
        if isinstance(self.lambdas, str) or not isinstance(self.lambdas, Iterable):
            raise ConfigError(f"lambdas must be a sequence of numbers, got {self.lambdas!r}")
        lams = tuple(self.lambdas) or default_lambda_grid(self.epsilon)
        for x in lams:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ConfigError(f"coupling values must be real numbers, got {x!r}")
            if not math.isfinite(x) or x < 0:
                raise ConfigError(f"coupling values must be finite and >= 0, got {x!r}")
        lams = tuple(float(x) for x in lams)
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ConfigError("coupling grid must be strictly increasing")
        return replace(
            self,
            lambdas=lams,
            sources=_canonical_subset(self.sources, SWEEP_SOURCES, "source"),
            observables=_canonical_subset(
                self.observables, SWEEP_OBSERVABLES, "observable"
            ),
        )


#: A sweep block's size, counted as one full-space complex vector (16 B per
#: row of the symmetric space) per table row: 9 couplings with both sources
#: at N = 50, one from N = 110.  States hold only their even-sector
#: coefficients, about a quarter of those rows, so a block holds less than it
#: counts; the count stays because it sets the Lanczos stack and the cat pass
#: (a block solves its couplings as one stack, which shares the one 2 MiB
#: Krylov store, and builds their cats in one pass), and wider stacks were
#: measured slower at N = 100-400 with that store.  The default N = 50 sweep
#: on a 2-core VM with one BLAS thread, against one coupling per block: a
#: warm run_sweep in 0.068 s against 0.169 s, peak RSS 68.1 MB against
#: 66.0 MB, traced peak 2.74 MiB against 2.18 MiB (10.6 MiB in one block).
_SWEEP_BLOCK_BYTES = 3 * 2**17


def _sweep_block(config: SweepConfig, lams) -> list:
    """Records of a block of couplings, sources in canonical order: one
    stacked solve and one cat pass of the block's couplings, each state kept
    as it is returned, then _block_observables over the block's states, and
    each row checked as a table row before it becomes a record.  A coupling
    whose solve or cat failed, or a failed pass, sends the block through its
    rows one by one, each row's pass made on its state alone, so the first
    failing row in (lambda, source) order names itself."""
    n, sources, rows, states = config.n_particles, config.sources, [], []
    basis = shared_basis(n, 3)
    params = LmgParams(n_particles=n, epsilon=config.epsilon, lam=lams[0])
    solved = iter(ground_state(params, lams=lams) if "numerical" in sources else ())
    cats = iter(variational_cat(basis, params, lams=lams) if "variational" in sources else ())
    for lam in lams:
        point = stationary_point(replace(params, lam=lam))
        for source in sources:
            rows.append(dict(lam=lam, source=source, alpha0=point.alpha0, beta0=point.beta0))
            state = next(solved if source == "numerical" else cats)
            if source == "numerical" and not isinstance(state, Exception):
                rows[-1]["energy"] = state.energy if "energy" in config.observables else None
                state = state.state
            states.append(state)
    grounds = {row["lam"]: row.get("energy") for row in rows if row["source"] == "numerical"}
    error = next((state for state in states if isinstance(state, Exception)), None)
    if error is None:
        try:
            _block_observables(config, rows, states, grounds)
        except (UdspinError, ValueError) as exc:
            error = exc
    for row, state in zip(rows, states):
        label = f"N={n}, lam={row['lam']!r}, source={row['source']}"
        if error is not None:
            try:
                if isinstance(state, Exception):
                    raise state
                _block_observables(config, [row], [state], grounds)
            except (UdspinError, ValueError) as exc:
                raise type(exc)(f"{label}: {exc}") from exc
        _check_row_values(dict(zip(CSV_COLUMNS, map(row.get, _RECORD_FIELDS))), "json", label)
    if error is not None:
        raise error
    return [SweepRecord(**row) for row in rows]


def _block_observables(config: SweepConfig, rows: list, states: list, grounds: dict) -> None:
    """Write the selected observables into the rows, one array pass each over
    their states: one expval_tables call, one level_populations call per
    level and one eigvalsh call per RDM kind.  Each value has the bytes of
    a one-state call, so a row's pass made on its state alone gives its
    values.  A cat's energy must not lie below its coupling's ground energy
    in `grounds` ({lambda: energy} of the block's numerical rows)."""
    n, d, want = config.n_particles, 3, set(config.observables)
    cats = [k for k, row in enumerate(rows) if row["source"] == "variational" and "energy" in want]
    if cats or want & {"one_atom", "two_atom", "squeezing_total", "squeezing_pairs"}:
        S, Q = expval_tables(states)
    if cats:  # a cat's energy comes from its tables
        lams = np.array([rows[k]["lam"] for k in cats])
        energies = _tables_energy(S[cats], Q[cats], n, config.epsilon, lams)
        for k, energy in zip(cats, energies.tolist()):
            rows[k]["energy"], lam = energy, rows[k]["lam"]
            ground = grounds.get(lam)  # Rayleigh-Ritz; a NaN energy is left to the row check
            if ground is not None and energy < ground - _RESIDUAL_TOL * (config.epsilon + lam):
                raise IntegrityError(f"variational energy {energy!r} below ground {ground!r}")
    columns, levels = {}, [i for i in (1, 2, 3) if f"level_entropy_{i}" in want]
    if levels:
        pops = np.stack([level_populations(states, i) for i in levels])
        columns.update(zip((f"L_level_{i}" for i in levels), linear_entropies(pops, "level", n, d)))
    for kind, name in (("one_atom", "L1_atom"), ("two_atom", "L2_atom")):
        if kind in want:
            columns[name] = _atom_entropies(S, Q, n, kind)
    if want & {"squeezing_total", "squeezing_pairs"}:
        report = squeezing_report_from_tables(Q, n)
        if "squeezing_total" in want:
            columns["xi2_total"] = report.total
        if "squeezing_pairs" in want:
            columns.update((f"xi2_{i}{j}", xi) for (i, j), xi in report.pairwise.items())
    for name, column in columns.items():
        for row, value in zip(rows, column.tolist()):
            row[name] = value


def _atom_entropies(S, Q, n: int, kind: str) -> np.ndarray:
    """Linear entropies of the one_atom or two_atom reduction of each state
    of a stack, from its three-level moment tables, in one eigvalsh call."""
    if kind == "one_atom":
        rho = one_qudit_rdm_from_tables(S, n)
    else:
        rho = two_qudit_rdm_from_tables(S, Q, n)
    return linear_entropies(_spectra(rho), kind, n, 3)


def run_sweep(config: SweepConfig) -> list:
    """Compute all records, coupling ascending, numerical first.

    The couplings go in blocks of _SWEEP_BLOCK_BYTES (see _sweep_block),
    dispatched to a process pool when jobs > 1.  Every value has the bytes
    of a one-state call, so neither the block size nor the pool changes a row,
    and blocks come back in order, so the first failing row raises.
    """
    cfg = config.validated()
    size = max(1, _SWEEP_BLOCK_BYTES // (len(cfg.sources) * 16 * dimension(cfg.n_particles, 3)))
    blocks = [cfg.lambdas[k : k + size] for k in range(0, len(cfg.lambdas), size)]
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~18 ms to import: pools only

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(_sweep_block, repeat(cfg), blocks))
    else:
        chunks = [_sweep_block(cfg, lams) for lams in blocks]
    return [record for chunk in chunks for record in chunk]


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    return "" if value is None else f"{value:.12g}"


def _json_cell(value):
    if isinstance(value, str) or value is None:
        return value
    return float(f"{value:.12g}")


def _render_rows(header, rows, fmt: str) -> str:
    """The one table serializer: floats carry 12 significant digits,
    strings pass through and None is an empty CSV cell or JSON null."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
        return buffer.getvalue()
    if fmt == "json":
        cells = [{key: _json_cell(v) for key, v in zip(header, row)} for row in rows]
        return json.dumps(cells, indent=2) + "\n"
    raise ConfigError(f"unknown format {fmt!r}; choose csv or json")


def render_records(records, fmt: str = "csv") -> str:
    """Serialize records in CSV_COLUMNS order; floats carry 12 significant digits."""
    rows = [[getattr(record, name) for name in _RECORD_FIELDS] for record in records]
    return _render_rows(CSV_COLUMNS, rows, fmt)


def _write_table(path, text: str) -> None:
    """The one write step of every table file: an OSError becomes a
    ConfigError naming the file that could not be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_records(records, path, fmt: str = "csv") -> None:
    """Write the table, then re-read the file and validate its schema."""
    _write_table(path, render_records(records, fmt))
    validate_table(path, fmt)


def _check_row_values(row: dict, fmt: str, where: str) -> None:
    """Numeric cells parse as floats in range; a JSON cell must already be a
    number or null, never a boolean or a string."""
    for column in CSV_COLUMNS:
        raw = row[column]
        if column == "source" or raw is None:
            continue
        if fmt == "json":
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise IntegrityError(f"{where}: {column}: non-numeric value {raw!r}")
        elif raw == "":
            continue
        try:
            check_range(float(raw), _COLUMN_KINDS.get(column), column)
        except (TypeError, ValueError, OverflowError):
            raise IntegrityError(f"{where}: {column}: non-numeric value {raw!r}") from None
        except IntegrityError as exc:  # where is formatted only for a failing cell
            raise IntegrityError(f"{where}: {exc}") from None


def _check_row_shape(row, fmt: str, where: str) -> None:
    """A CSV row has exactly the header's cells; a JSON record is an object
    with exactly the sweep columns."""
    if not isinstance(row, dict):
        raise IntegrityError(f"{where}: record {row!r} is not an object")
    if None in row:  # csv.DictReader files cells past the header under None
        raise IntegrityError(f"{where}: cells past column {CSV_COLUMNS[-1]!r}")
    for column in CSV_COLUMNS:
        if column not in row or (fmt == "csv" and row[column] is None):
            raise IntegrityError(f"{where}: no cell for column {column!r}")
    if len(row) != len(CSV_COLUMNS):
        extra = sorted(set(row) - set(CSV_COLUMNS))
        raise IntegrityError(f"{where}: unknown columns {extra!r}")


def validate_table(path, fmt: str = "csv") -> int:
    """Post-write schema check of a sweep file; returns the row count."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            reader = csv.DictReader(handle)
            if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
                raise IntegrityError(
                    f"{path}: header {reader.fieldnames!r} != {list(CSV_COLUMNS)!r}"
                )
            rows = list(reader)
        elif fmt == "json":
            rows = json.load(handle)
            if not isinstance(rows, list):
                raise IntegrityError(f"{path}: expected a list of records")
        else:
            raise ConfigError(f"unknown format {fmt!r}; choose csv or json")
    for index, row in enumerate(rows):
        where = f"{path}: row {index}"
        _check_row_shape(row, fmt, where)
        if row["source"] not in SWEEP_SOURCES:
            raise IntegrityError(f"{where}: bad source {row['source']!r}")
        _check_row_values(row, fmt, where)
    return len(rows)


# --------------------------------------------------------------------------
# Phase-space surfaces


SURFACE_KINDS = ("dscs", "dcat")
SURFACE_COORDS = ("alpha_beta", "xy")
SURFACE_OBSERVABLES = (
    "level_entropy_1",
    "level_entropy_2",
    "level_entropy_3",
    "one_atom",
    "two_atom",
    "squeezing_total",
    "energy",
)


@dataclass(frozen=True)
class SurfaceConfig:
    """Real grid of state labels and the observable to tabulate.

    With coords="alpha_beta" the node (a, b) labels the three-level
    state family (1, a, b); with coords="xy" the node is the pair
    (chosen-level weight, remaining weight), for which the level
    entropy of a coherent state depends only on x/(x+y) -- available
    for kind="dscs" and level observables only.  The "energy"
    observable is the mean-field surface (state-size independent).
    """

    n_particles: int = 10
    epsilon: float = 1.0
    lam: float = 1.0
    kind: str = "dcat"
    coords: str = "alpha_beta"
    observable: str = "level_entropy_1"
    a_min: float = 0.0
    a_max: float = 2.0
    a_count: int = 41
    b_min: float = 0.0
    b_max: float = 2.0
    b_count: int = 41

    def validated(self) -> "SurfaceConfig":
        check_integer(self.n_particles, 3, None, "n_particles", ConfigError)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("epsilon must be positive and finite")
        default_lambda_grid(self.epsilon)  # the sidecar's grid
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam!r}")
        if self.kind not in SURFACE_KINDS:
            raise ConfigError(f"unknown state kind {self.kind!r}")
        if self.coords not in SURFACE_COORDS:
            raise ConfigError(f"unknown coordinates {self.coords!r}")
        if self.observable not in SURFACE_OBSERVABLES:
            raise ConfigError(f"unknown observable {self.observable!r}")
        for lo, hi, count, axis in (
            (self.a_min, self.a_max, self.a_count, "a"),
            (self.b_min, self.b_max, self.b_count, "b"),
        ):
            check_integer(count, 2, None, f"{axis}_count", ConfigError)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(f"need finite {axis}_min < {axis}_max")
            if not math.isfinite(hi - lo):  # np.linspace would overflow to NaN nodes
                raise ConfigError(f"{axis} span {hi!r} - {lo!r} is past the float range")
        if self.coords == "xy":
            if self.kind != "dscs" or not self.observable.startswith("level_entropy"):
                raise ConfigError(
                    "xy coordinates apply to dscs level entropies only"
                )
            if self.a_min < 0 or self.b_min < 0:
                raise ConfigError("xy coordinates must be non-negative")
        return self


#: Nodes per array pass, which holds (nodes, D^4) complex tables or the
#: (nodes, 2^(D-2), N+1) cat level terms.  On the 41x41 N = 100 dcat grid the
#: traced peak of surface_table is 0.55 MB for two_atom and 0.59 MB for
#: level_entropy_1 in blocks of 64, against 11.4 and 14.2 MB in one pass, for
#: the same time within noise.  Values do not depend on the block size.
_SURFACE_BLOCK = 64


def _block_values(config: SurfaceConfig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The observable at one block of nodes (1-D a, b), in one array pass over
    closed forms: moment tables and one eigvalsh call, level weights, or the
    mean-field energy.  No node builds a state vector."""
    n, kind, observable = config.n_particles, config.kind, config.observable
    if observable == "energy":
        params = LmgParams(n_particles=n, epsilon=config.epsilon, lam=config.lam)
        return energy_surface(a, b, params)
    z = np.stack([np.ones_like(a), a, b], axis=-1)  # the orbitals (1, a, b)
    if observable in ("one_atom", "two_atom", "squeezing_total"):
        tables = dscs_expval_tables if kind == "dscs" else dcat_expval_tables
        S, Q = tables(z, n)
        if observable == "squeezing_total":
            return squeezing_report_from_tables(Q, n).total
        return _atom_entropies(S, Q, n, observable)
    level, power = int(observable[-1]), 2
    if config.coords == "xy":  # the chosen level's weight and the others' summed weight
        level, z, power = 1, np.stack([a, b], axis=-1), 1
    # a power of two scales z only where the squares overflow: other nodes keep their bits
    with np.errstate(over="ignore"):
        x = z**power
        over = ~np.isfinite(np.add.reduce(x, axis=-1))
    x[over] = _binary_scaled(z[over]) ** power
    x[np.add.reduce(x, axis=-1) == 0.0, 0] = 1.0  # no weight at all (the xy origin): pure
    return linear_entropies(level_weights(x, level, n, cat=kind == "dcat"), "level", n, 3)


def _surface_value(config: SurfaceConfig, a, b) -> np.ndarray:
    """Observable at the grid nodes (a, b), in the broadcast shape of a and b.

    Nodes go in blocks of _SURFACE_BLOCK (see _block_values).  When a block
    fails, its nodes are run one by one, and the first that fails re-raises
    its UdspinError as its own class, naming the node.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    a_flat, b_flat = a.ravel(), b.ravel()
    values = np.empty(a.size)
    for start in range(0, a.size, _SURFACE_BLOCK):
        block = slice(start, start + _SURFACE_BLOCK)
        try:
            values[block] = _block_values(config, a_flat[block], b_flat[block])
        except UdspinError:
            for ak, bk in zip(a_flat[block].tolist(), b_flat[block].tolist()):
                try:
                    _block_values(config, np.array([ak]), np.array([bk]))
                except UdspinError as exc:
                    node = f"observable={config.observable}, (a, b)=({ak!r}, {bk!r})"
                    where = f"N={config.n_particles}, kind={config.kind}, {node}"
                    raise type(exc)(f"{where}: {exc}") from exc
            raise
    return values.reshape(a.shape)


def surface_table(config: SurfaceConfig) -> list:
    """Rows (a, b, value) in row-major grid order."""
    cfg = config.validated()
    a, b = np.meshgrid(
        np.linspace(cfg.a_min, cfg.a_max, cfg.a_count),
        np.linspace(cfg.b_min, cfg.b_max, cfg.b_count),
        indexing="ij",
    )
    values = np.broadcast_to(_surface_value(cfg, a, b), a.shape)
    return list(zip(a.ravel().tolist(), b.ravel().tolist(), values.ravel().tolist()))


def stationary_table(epsilon: float = 1.0, lambdas=None) -> list:
    """Rows (lambda, alpha0, beta0) of the mean-field minimizer curve."""
    if lambdas is None:
        lambdas = default_lambda_grid(epsilon)
    rows = []
    for lam in lambdas:
        point = stationary_point(LmgParams(n_particles=3, epsilon=epsilon, lam=lam))
        rows.append((float(lam), point.alpha0, point.beta0))
    return rows


def write_surface(config: SurfaceConfig, path, fmt: str = "csv") -> str:
    """Write the surface table plus a stationary-curve sidecar.

    Returns the sidecar path.  The observable column is checked before
    writing, so a failing surface leaves no file: every value must be
    finite, entropies must lie in [0, 1] and squeezing must be non-negative.
    """
    cfg = config.validated()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}; choose csv or json")
    header = ("x", "y", "value") if cfg.coords == "xy" else ("alpha", "beta", "value")
    rows = surface_table(cfg)
    kind = {"energy": None, "squeezing_total": "nonneg"}.get(cfg.observable, "unit")
    try:  # one pass; only a failing table formats where its first bad cell is
        check_ranges(np.array([value for _, _, value in rows]), kind, str(path))
    except IntegrityError:
        for a, b, value in rows:
            check_range(value, kind, f"{path}: ({a}, {b})")
        raise
    sidecar = f"{path}.stationary.{fmt}"
    _write_table(path, _render_rows(header, rows, fmt))
    stationary = stationary_table(cfg.epsilon)
    _write_table(sidecar, _render_rows(("lambda", "alpha0", "beta0"), stationary, fmt))
    return sidecar
