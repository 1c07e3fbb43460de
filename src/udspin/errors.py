"""Exception hierarchy shared across the package, the one range rule, the
one integer rule, and the one outcome of a stack of one."""

import math
import numbers
import sys

import numpy as np


class UdspinError(Exception):
    """Base class for package-specific failures."""


class CapacityError(UdspinError):
    """Requested object exceeds a hard size bound (dimension, oracle range)."""


class EmptySectorError(UdspinError):
    """A projection annihilated the state (zero norm within tolerance)."""


class IntegrityError(UdspinError):
    """An internal cross-check failed: results cannot be trusted."""


class ConfigError(UdspinError):
    """Invalid run configuration (CLI flags or config file)."""


#: Roundoff an entropy or a squeezing parameter may carry past its bound.
_ROUNDOFF = 1e-9

# kind: (low, high, shown as); finite ends stand in for open ones, so that
# the one bound comparison also rejects +-inf
_RANGES = {
    "unit": (0.0, 1.0, "[0, 1]"),
    "nonneg": (0.0, sys.float_info.max, "[0, inf)"),
    None: (-sys.float_info.max, sys.float_info.max, None),
}


def check_range(value, kind, what: str, tol: float = 0.0) -> float:
    """The one range rule: kind "unit" is [0, 1], "nonneg" is [0, inf) and
    None asks only for a finite value.  A value within `tol` of its range
    comes back snapped onto it, as a float; NaN, +-inf or a value further
    out raises IntegrityError naming `what`."""
    lo, hi, shown = _RANGES[kind]
    if lo - tol <= value <= hi + tol:  # NaN fails this comparison
        return lo if value < lo else hi if value > hi else float(value)
    if not math.isfinite(value):
        raise IntegrityError(f"{what}: non-finite value {value!r}")
    raise IntegrityError(f"{what}: {value!r} outside {shown} beyond tolerance {tol}")


def check_ranges(values, kind, what: str, tol: float = 0.0):
    """check_range elementwise, as a ufunc: the values come back snapped, or
    the first out of range (row-major) raises."""
    lo, hi, _ = _RANGES[kind]
    bad = ~((lo - tol <= values) & (values <= hi + tol))
    if bad.any():
        check_range(values[bad][0].item(), kind, what, tol)
    return np.clip(values, lo, hi)


def check_integer(value, lo: int, hi: int | None, what: str, error=ValueError) -> int:
    """The one integer rule for counts, level indices, parities and ranks:
    a Python or numpy integer, not a bool or a float, in [lo, hi] (hi None
    for no upper bound).  Returns it as a plain int; anything else raises
    `error` naming `what`."""
    if (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and lo <= value
        and (hi is None or value <= hi)
    ):
        return int(value)
    shown = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise error(f"{what} must be an integer {shown}, got {value!r}")


def _only(outcomes):
    """The outcome of a stack of one (a result or an error), raised if an error."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
