"""Built-in drive scenario catalog.

Each family fixes the three profile functions from a handful of numbers.
Parameter names double as config keys:

- rabi: omega_z0, omega_mag0, phi_dot0 (all constant; generic off-resonance)
- sech_resonant: omega_mag0, phi_dot0 (hyperbolic-secant pulse, resonant)
- exp_resonant: omega_mag0, gamma or alpha, phi_dot0 (decaying drive, resonant)
- modulated_resonant: C, k, n, phi_dot0 (cosine-modulated drive, resonant)
- constant_beta0: beta0, omega_mag0 (detuning locked to beta0 |omega|)
- case1, case2: omega_mag0 plus the split_fraction knob

For case1/case2 the required detuning may be divided between the diagonal
entry and the phase velocity: Omega = (1 - f) Delta and phi_omega_dot =
2 f Delta with f the split fraction. The entry moduli are invariant under f;
the entry phases are not.

Each family also declares a dimensionless time axis (the natural abscissa
for plots: |omega0| t for most, gamma t for the decaying drive, phi_dot0 t
for the modulated one) and a default window on that axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import closed_forms
from .closed_forms import (case1_detuning_integral, case1_detuning_ratio,
                           case2_detuning_integral, case2_detuning_ratio)
# unused here; benchmarks/gbench/tracer.py patches scenarios.case1_series
from .closed_forms import case1_series  # noqa: F401
from .errors import ConfigError
from .fields import FieldProfile
from .theta import (ThetaAnsatz, beta0_ansatz, case1_ansatz, case2_ansatz,
                    zero_ansatz)

__all__ = [
    "FAMILIES",
    "BUILT_IN",
    "ScenarioParams",
    "make_scenario",
    "resolved_params",
    "scenario_time_scale",
    "default_window",
    "default_ansatz",
    "family_summary",
    "closed_form_series",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 1001


@dataclass(frozen=True)
class ScenarioParams:
    """Family name plus its numeric parameters.

    params holds only keys the family defines; omitted ones take their
    defaults. split_fraction is meaningful for case1/case2 only.
    """

    family: str
    params: dict = field(default_factory=dict)
    split_fraction: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; choose from "
                f"{', '.join(FAMILIES)}")
        object.__setattr__(self, "params", dict(self.params))
        f = self.split_fraction
        check_numbers({"split_fraction": f})
        _require(0.0 <= f <= 1.0, "split_fraction", "must be in [0, 1]")
        if f != 0.0 and not _CATALOG[self.family].split:
            splits = ", ".join(n for n, fam in _CATALOG.items() if fam.split)
            raise ConfigError(
                f"split_fraction applies to {splits} only, not "
                f"{self.family!r}")


def _require(cond: bool, name: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"parameter {name!r} {msg}")


def check_numbers(values: dict) -> None:
    """ConfigError naming the first value that is not a finite number (a
    bool is not a number)."""
    for k, v in values.items():
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and math.isfinite(v), k, "must be a finite number")


def check_keys(owner: str, mapping: dict, allowed: tuple) -> None:
    # owner names a family or a config document
    for k in mapping:
        if k not in allowed:
            raise ConfigError(
                f"unknown key {k!r} for {owner}; "
                f"valid: {', '.join(allowed)}")


# -- per-family resolvers: fill defaults, enforce domains -------------------

def _resolver(family: str, defaults: dict, positive: tuple = (),
              nonnegative: tuple = ()):
    # also checks the coupling families of modes
    def resolver(p: dict) -> dict:
        check_keys(f"family {family!r}", p, tuple(defaults))
        r = {k: p.get(k, v) for k, v in defaults.items()}
        check_numbers(r)
        for k in nonnegative:
            _require(r[k] >= 0, k, "must be >= 0")
        for k in positive:
            _require(r[k] > 0, k, "must be > 0")
        return r
    return resolver


def _resolve_exp(p: dict) -> dict:
    check_keys("family 'exp_resonant'", p,
               ("omega_mag0", "gamma", "alpha", "phi_dot0"))
    if "gamma" in p and "alpha" in p:
        raise ConfigError(
            "give either 'gamma' or 'alpha' (= omega_mag0/gamma), not both")
    w0, alpha = p.get("omega_mag0", 1.0), p.get("alpha", 4.5 * math.pi)
    check_numbers({"omega_mag0": w0, "alpha": alpha})
    _require(w0 > 0, "omega_mag0", "must be > 0")
    _require(alpha > 0, "alpha", "must be > 0")
    gamma = p.get("gamma", w0 / alpha)
    r = {"omega_mag0": w0, "gamma": gamma,
         "phi_dot0": p.get("phi_dot0", 10.0 * gamma)}
    check_numbers(r)
    _require(r["gamma"] > 0, "gamma", "must be > 0")
    return r


_MODULATED = _resolver("modulated_resonant",
                       {"C": 1.0, "k": 1.0, "n": 10, "phi_dot0": 1.0},
                       positive=("C", "n", "phi_dot0"), nonnegative=("k",))


def _resolve_modulated(p: dict) -> dict:
    r = _MODULATED(p)
    _require(r["k"] <= 1.0, "k",
             "must be in [0, 1] (the modulated |omega| must stay >= 0)")
    _require(float(r["n"]).is_integer(), "n", "must be a positive integer")
    r["n"] = int(r["n"])
    return r


# -- builders ---------------------------------------------------------------

def _const(value: float):
    def fn(t):
        return np.full_like(np.asarray(t, dtype=float), value)
    return fn


def _linear(rate: float):
    def fn(t):
        return rate * np.asarray(t, dtype=float)
    return fn


def _label(family: str, resolved: dict, split: float) -> str:
    parts = [f"{k}={v:g}" for k, v in resolved.items()]
    if split:
        parts.append(f"split={split:g}")
    return f"{family}({', '.join(parts)})"


def _constant(family: str, r: dict, omega_z: float, w0: float,
              rate: float) -> FieldProfile:
    # constant Omega and |omega| with a linear phase sweep at rate
    return FieldProfile(
        omega_z=_const(omega_z), omega_mag=_const(w0),
        phi_omega=_linear(rate), phi_omega_dot=_const(rate),
        tau_of_t=_linear(w0), label=_label(family, r, 0.0))


def _resonant(family: str, r: dict, rate: float, mag, tau) -> FieldProfile:
    # generalized resonance: Omega = -rate/2 against a linear phase sweep
    return FieldProfile(
        omega_z=_const(-0.5 * rate), omega_mag=mag,
        phi_omega=_linear(rate), phi_omega_dot=_const(rate),
        tau_of_t=tau, label=_label(family, r, 0.0))


def _build_rabi(r: dict, split: float) -> FieldProfile:
    return _constant("rabi", r, r["omega_z0"], r["omega_mag0"],
                     r["phi_dot0"])


def _build_sech(r: dict, split: float) -> FieldProfile:
    w0 = r["omega_mag0"]

    def mag(t):
        return w0 / np.cosh(w0 * np.asarray(t, dtype=float))

    def tau(t):
        return np.arctan(np.sinh(w0 * np.asarray(t, dtype=float)))

    return _resonant("sech_resonant", r, r["phi_dot0"], mag, tau)


def _build_exp(r: dict, split: float) -> FieldProfile:
    w0, gamma = r["omega_mag0"], r["gamma"]
    alpha = w0 / gamma

    def mag(t):
        return w0 * np.exp(-gamma * np.asarray(t, dtype=float))

    def tau(t):
        return alpha * (1.0 - np.exp(-gamma * np.asarray(t, dtype=float)))

    return _resonant("exp_resonant", r, r["phi_dot0"], mag, tau)


def _build_modulated(r: dict, split: float) -> FieldProfile:
    rate = r["phi_dot0"]
    w0 = r["C"] * rate
    lam = r["n"] * rate
    k = r["k"]

    def mag(t):
        return w0 * (1.0 + k * np.cos(lam * np.asarray(t, dtype=float)))

    def tau(t):
        arr = np.asarray(t, dtype=float)
        return w0 * (arr + (k / lam) * np.sin(lam * arr))

    return _resonant("modulated_resonant", r, rate, mag, tau)


def _build_beta0(r: dict, split: float) -> FieldProfile:
    w0 = r["omega_mag0"]
    return _constant("constant_beta0", r, r["beta0"] * w0, w0, 0.0)


def _build_case(family: str, ratio, integral):
    def builder(r: dict, split: float) -> FieldProfile:
        w0 = r["omega_mag0"]
        f = split

        def omega_z(t):
            return (1.0 - f) * w0 * ratio(w0 * np.asarray(t, dtype=float))

        def phi(t):
            return 2.0 * f * integral(w0 * np.asarray(t, dtype=float))

        def phi_dot(t):
            return 2.0 * f * w0 * ratio(w0 * np.asarray(t, dtype=float))

        return FieldProfile(
            omega_z=omega_z,
            omega_mag=_const(w0),
            phi_omega=phi,
            phi_omega_dot=phi_dot,
            tau_of_t=_linear(w0),
            label=_label(family, r, split))
    return builder


@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one family, looked up by name.

    closed_form(profile, resolved, ts, tol) evaluates the family's closed
    form, its (Theta, phi_int, r_int) triple through the shared entry map of
    closed_forms, with the profile's detuning checked against the ratio the
    triple solves within tol; it looks the series up on the closed_forms
    module at call time. ansatz(resolved) is the Theta ansatz of the same
    Theta. split marks families that take split_fraction. A record without
    a builder is library-only.
    """

    resolver: Callable | None
    builder: Callable | None
    time_scale_key: str
    default_t_max: float | None  # on the dimensionless axis
    axis: str
    description: str
    closed_form: Callable | None = None
    tol: float = 0.0
    ansatz: Callable[[dict], ThetaAnsatz] | None = None
    split: bool = False


def _rabi_beta(r: dict) -> float:
    # a constant triple locks the detuning ratio at this beta
    return (r["omega_z0"] + 0.5 * r["phi_dot0"]) / r["omega_mag0"]


def _locked(beta, tol: float) -> dict:
    # closed form and ansatz of a detuning locked to beta(resolved) |omega|
    return {"closed_form": lambda p, r, ts, tol: closed_forms.beta0_series(
                p, beta(r), ts, tol=tol),
            "ansatz": lambda r: beta0_ansatz(beta(r)), "tol": tol}


_RESONANT = {"closed_form": lambda p, r, ts, tol: closed_forms.resonance_series(
                 p, ts, tol=tol),
             "ansatz": lambda r: zero_ansatz(), "tol": 1e-10}

_CATALOG = {
    "rabi": _Family(
        _resolver("rabi", {"omega_z0": 0.5, "omega_mag0": 1.0,
                           "phi_dot0": 1.0}, positive=("omega_mag0",)),
        _build_rabi, "omega_mag0", 4.0 * math.pi, "omega_mag0*t",
        "constant (omega_z0, omega_mag0, phi_dot0) triple; oscillation at "
        "the stretched rate sqrt(1+beta^2)|omega0| capped by 1/(1+beta^2)",
        **_locked(_rabi_beta, 1e-9)),
    "sech_resonant": _Family(
        _resolver("sech_resonant", {"omega_mag0": 1.0, "phi_dot0": 10.0},
                  positive=("omega_mag0",)),
        _build_sech, "omega_mag0", 6.0, "omega_mag0*t",
        "resonant hyperbolic-secant pulse; flip probability tanh^2",
        **_RESONANT),
    "exp_resonant": _Family(
        _resolve_exp, _build_exp, "gamma", 20.0, "gamma*t",
        "resonant exponentially decaying drive; flip probability saturates "
        "at sin^2(alpha), alpha = omega_mag0/gamma", **_RESONANT),
    "modulated_resonant": _Family(
        _resolve_modulated, _build_modulated, "phi_dot0", 4.0 * math.pi,
        "phi_dot0*t",
        "resonant cosine-modulated drive; flip probability periodic on the "
        "phi_dot0*t axis when n is an integer", **_RESONANT),
    "constant_beta0": _Family(
        _resolver("constant_beta0", {"beta0": 1.0, "omega_mag0": 1.0},
                  positive=("omega_mag0",), nonnegative=("beta0",)),
        _build_beta0, "omega_mag0", 4.0 * math.pi, "omega_mag0*t",
        "detuning locked to beta0*|omega|; flip probability capped at "
        "1/(1+beta0^2)", **_locked(lambda r: r["beta0"], 1e-10)),
    "case1": _Family(
        _resolver("case1", {"omega_mag0": 1.0}, positive=("omega_mag0",)),
        _build_case("case1", case1_detuning_ratio, case1_detuning_integral),
        "omega_mag0", 50.0, "omega_mag0*t",
        "arctangent-ansatz detuning; flip probability saturates at 1/2 with "
        "elliptic entry phases",
        closed_form=lambda p, r, ts, tol: closed_forms.case1_series(
            p, ts, tol=tol),
        tol=1e-8, ansatz=lambda r: case1_ansatz(), split=True),
    "case2": _Family(
        _resolver("case2", {"omega_mag0": 1.0}, positive=("omega_mag0",)),
        _build_case("case2", case2_detuning_ratio, case2_detuning_integral),
        "omega_mag0", 20.0, "omega_mag0*t",
        "arctangent-ansatz detuning; full asymptotic inversion",
        closed_form=lambda p, r, ts, tol: closed_forms.case2_series(
            p, ts, tol=tol),
        tol=1e-8, ansatz=lambda r: case2_ansatz(), split=True),
    "custom": _Family(
        None, None, "", None, "t",
        "user-supplied FieldProfile via the library API (library only)"),
}

FAMILIES = tuple(_CATALOG)

# the families the catalog can build
BUILT_IN = tuple(n for n, fam in _CATALOG.items() if fam.builder is not None)


def _family_entry(family: str) -> _Family:
    fam = _CATALOG[family]
    if fam.builder is None:
        raise ConfigError(
            f"family {family!r} profiles are built directly as FieldProfile "
            "values through the library API; the catalog covers named "
            "families only")
    return fam


def resolved_params(params: ScenarioParams) -> dict:
    """Family parameters with defaults filled in and domains enforced."""
    return _family_entry(params.family).resolver(params.params)


def make_scenario(params: ScenarioParams | str) -> FieldProfile:
    """Build the FieldProfile of a named family.

    A bare family name means all-default parameters. Every built-in profile
    carries analytic phase derivative and transverse area, so nothing
    downstream needs numerical differentiation for these.
    """
    if isinstance(params, str):
        params = ScenarioParams(family=params)
    fam = _family_entry(params.family)
    return fam.builder(fam.resolver(params.params), params.split_fraction)


def scenario_time_scale(params: ScenarioParams | str) -> float:
    """Factor u mapping physical time to the family's plot axis u*t."""
    if isinstance(params, str):
        params = ScenarioParams(family=params)
    fam = _family_entry(params.family)
    return float(fam.resolver(params.params)[fam.time_scale_key])


def default_window(family: str) -> tuple[float, int]:
    """(t_max on the dimensionless axis, samples) used when unspecified."""
    return _family_entry(family).default_t_max, DEFAULT_SAMPLES


def family_summary() -> list[dict]:
    """Catalog rows for the CLI listing."""
    return [{"family": name, "axis": fam.axis,
             "default_t_max": fam.default_t_max,
             "defaults": fam.resolver({}) if fam.resolver else {},
             "description": fam.description}
            for name, fam in _CATALOG.items()]


def closed_form_series(params: ScenarioParams, profile: FieldProfile, ts):
    """The family's closed-form entries on a time grid, detuning checked."""
    fam = _family_entry(params.family)
    return fam.closed_form(profile, fam.resolver(params.params), ts, fam.tol)


def default_ansatz(params: ScenarioParams) -> ThetaAnsatz:
    """The Theta ansatz that solves the family's profiles."""
    fam = _family_entry(params.family)
    return fam.ansatz(fam.resolver(params.params))
