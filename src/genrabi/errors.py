"""Exception types and the input rules shared across the package."""

from __future__ import annotations

import math
import sys
from numbers import Rational, Real

import numpy as np

__all__ = [
    "GenrabiError",
    "ConfigError",
    "NumericError",
    "StepResolutionError",
    "QuadratureError",
    "SingularAnsatzError",
    "InconsistentProfileError",
    "UnitarityDriftError",
]


class GenrabiError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GenrabiError, ValueError):
    """Invalid parameter, scenario, or configuration input."""


class NumericError(GenrabiError):
    """Base class for failures detected during numerical evaluation."""


class StepResolutionError(NumericError):
    """Propagator step too coarse for the fastest field scale."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class SingularAnsatzError(NumericError):
    """The ansatz phase integral hits an interior cotangent singularity.

    The phase quadratures are only well defined while twice the accumulated
    cosine integral stays inside its first half-turn; a zero crossing in the
    interior means the supplied ansatz does not yield a valid representation
    on the requested window.
    """


class InconsistentProfileError(NumericError):
    """The field profile does not satisfy the condition a formula requires.

    Raised when closed-form entries or ansatz entries are requested for a
    profile whose detuning does not match the one the representation solves.
    """


class UnitarityDriftError(NumericError):
    """Accumulated unitarity defect exceeded the configured bound."""


def check_name(what: str, name, choices: tuple, owner: str = "") -> None:
    """ConfigError unless name is one of choices: "unknown key 'tmax' for
    the scenario config; did you mean: ...; choose from ..." for what="key"
    and owner="the scenario config". A non-string is never a choice."""
    if isinstance(name, str) and name in choices:
        return
    import difflib  # only an unknown name needs it
    near = difflib.get_close_matches(str(name), choices, n=3, cutoff=0.4) \
        or [c for c in choices if c.startswith(str(name))]
    where = f" for {owner}" if owner else ""
    hint = f"; did you mean: {', '.join(near)}" if near else ""
    raise ConfigError(f"unknown {what} {name!r}{where}{hint}; choose from "
                      f"{', '.join(choices)}")


def require(cond: bool, name: str, msg: str) -> None:
    """ConfigError "parameter 'name' msg" unless cond."""
    if not cond:
        raise ConfigError(f"parameter {name!r} {msg}")


def check_numbers(values: dict, positive=(), nonnegative=()) -> None:
    """ConfigError naming the first value that is not a finite real number,
    NumPy scalars included (a bool is not a number), then the first key of
    nonnegative whose value is < 0 and the first of positive <= 0."""
    for k, v in values.items():  # math.isfinite overflows on a huge int
        require(isinstance(v, Real) and not isinstance(v, bool) and (
            abs(v) <= sys.float_info.max if isinstance(v, Rational)
            else math.isfinite(v)), k, "must be a finite number")
    for k in nonnegative:
        require(values[k] >= 0, k, "must be >= 0")
    for k in positive:
        require(values[k] > 0, k, "must be > 0")


def check_entries(a, b, ts, what: str) -> None:
    """NumericError at the first t of ts where entry a or b is not finite."""
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if np.any(bad):
        raise NumericError(f"entries for {what} are not finite at "
                           f"t={ts[np.argmax(bad)]:g}")


def check_tolerance(name: str, value) -> None:
    """ConfigError unless the tolerance called name is finite and > 0."""
    if not 0 < value < float("inf"):
        raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
