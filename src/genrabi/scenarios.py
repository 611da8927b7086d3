"""Built-in drive scenario catalog.

Each family fixes the three profile functions from a handful of numbers,
resolved once, when ScenarioParams is built (every function here reads the
resolved dict). Parameter names double as config keys:

- rabi: omega_z0, omega_mag0, phi_dot0 (all constant; generic off-resonance)
- sech_resonant: omega_mag0, phi_dot0 (hyperbolic-secant pulse, resonant)
- exp_resonant: omega_mag0, gamma or alpha, phi_dot0 (decaying drive, resonant)
- modulated_resonant: C, k, n, phi_dot0 (cosine-modulated drive, resonant)
- constant_beta0: beta0, omega_mag0 (detuning locked to beta0 |omega|)
- case1, case2: omega_mag0 plus the split_fraction knob

Every family is the paper's one construction. An envelope gives |omega(t)|
and tau(t), its integral from 0; a Theta(tau) induces the ratio r(tau) =
Theta'/2 + sin Theta cot 2 phi_int, R its integral over tau, and Delta =
r(tau) |omega| is solvable. With a constant phase rate rho and the split
fraction f (case1/case2), Omega = (1 - f) Delta - rho/2, phi_omega_dot = rho
+ 2 f Delta and phi_omega = rho t + 2 f R(tau); f leaves the entry moduli
unchanged, not their phases. rabi, constant_beta0 and the resonant families
lock the ratio at a constant beta: (omega_z0 + phi_dot0/2) / omega_mag0,
beta0 and 0.

Each family also names the parameter u of its dimensionless time axis u t
(the natural abscissa for plots: |omega0| t for most, gamma t for the
decaying drive, phi_dot0 t for the modulated one) and a default window on
that axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import closed_forms
# unused here; benchmarks/gbench/tracer.py patches scenarios.case1_series
from .closed_forms import case1_series  # noqa: F401
from .errors import ConfigError, check_name, check_numbers, require
from .fields import FieldProfile
from .theta import (ThetaAnsatz, beta0_ansatz, case1_ansatz, case2_ansatz,
                    zero_ansatz)

__all__ = [
    "FAMILIES",
    "ScenarioParams",
    "make_scenario",
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

    family is one of FAMILIES, else a ConfigError offers close matches.
    params may hold only keys the family defines; construction resolves them
    once (idempotently), so params holds every key, defaults filled in and
    domains enforced (exp's alpha becomes gamma, modulated's n an int).
    split_fraction is meaningful for case1/case2 only.
    """

    family: str
    params: dict = field(default_factory=dict)
    split_fraction: float = 0.0

    def __post_init__(self):
        check_name("scenario", self.family, FAMILIES)
        f = self.split_fraction
        check_numbers({"split_fraction": f})
        require(0.0 <= f <= 1.0, "split_fraction", "must be in [0, 1]")
        if f != 0.0 and not _CATALOG[self.family].split:
            splits = ", ".join(n for n, fam in _CATALOG.items() if fam.split)
            raise ConfigError(
                f"split_fraction applies to {splits} only, not "
                f"{self.family!r}")
        object.__setattr__(self, "params",
                           _CATALOG[self.family].resolver(self.params))


def check_keys(owner: str, mapping: dict, allowed: tuple) -> None:
    # owner names a family or a config document
    for k in mapping:
        check_name("key", k, allowed, owner)


# -- per-family resolvers: fill defaults, enforce domains -------------------

def _resolver(family: str, defaults: dict, positive: tuple = (),
              nonnegative: tuple = ()):
    # also checks the coupling families of modes
    def resolver(p: dict) -> dict:
        check_keys(f"family {family!r}", p, tuple(defaults))
        r = {k: p.get(k, v) for k, v in defaults.items()}
        check_numbers(r, positive, nonnegative)
        return r
    return resolver


def _resolve_exp(p: dict) -> dict:
    check_keys("family 'exp_resonant'", p,
               ("omega_mag0", "gamma", "alpha", "phi_dot0"))
    if "gamma" in p and "alpha" in p:
        raise ConfigError(
            "give either 'gamma' or 'alpha' (= omega_mag0/gamma), not both")
    w0, alpha = p.get("omega_mag0", 1.0), p.get("alpha", 4.5 * math.pi)
    check_numbers({"omega_mag0": w0, "alpha": alpha},
                  positive=("omega_mag0", "alpha"))
    gamma = p.get("gamma", w0 / alpha)
    r = {"omega_mag0": w0, "gamma": gamma,
         "phi_dot0": p.get("phi_dot0", 10.0 * gamma)}
    check_numbers(r, positive=("gamma",))
    return r


_MODULATED = _resolver("modulated_resonant",
                       {"C": 1.0, "k": 1.0, "n": 10, "phi_dot0": 1.0},
                       positive=("C", "n", "phi_dot0"), nonnegative=("k",))


def _resolve_modulated(p: dict) -> dict:
    r = _MODULATED(p)
    require(r["k"] <= 1.0, "k",
            "must be in [0, 1] (the modulated |omega| must stay >= 0)")
    require(float(r["n"]).is_integer(), "n", "must be a positive integer")
    r["n"] = int(r["n"])
    return r


# -- the construction -------------------------------------------------------

def _const(value: float):
    def fn(t):
        return np.full_like(np.asarray(t, dtype=float), value)
    return fn


# envelopes: resolved params -> (|omega|, tau = integral of |omega| from 0)

def _flat(r: dict):
    w0 = r["omega_mag0"]
    return _const(w0), lambda t: w0 * np.asarray(t, dtype=float)


def _sech(r: dict):
    w0 = r["omega_mag0"]
    return (lambda t: w0 / np.cosh(w0 * np.asarray(t, dtype=float)),
            lambda t: np.arctan(np.sinh(w0 * np.asarray(t, dtype=float))))


def _exp(r: dict):
    w0, gamma = r["omega_mag0"], r["gamma"]
    alpha = w0 / gamma
    return (lambda t: w0 * np.exp(-gamma * np.asarray(t, dtype=float)),
            lambda t: alpha * (1.0 - np.exp(
                -gamma * np.asarray(t, dtype=float))))


def _modulated(r: dict):
    rate = r["phi_dot0"]
    w0, lam, k = r["C"] * rate, r["n"] * rate, r["k"]

    def mag(t):
        return w0 * (1.0 + k * np.cos(lam * np.asarray(t, dtype=float)))

    def tau(t):
        arr = np.asarray(t, dtype=float)
        return w0 * (arr + (k / lam) * np.sin(lam * arr))
    return mag, tau


def _build(fam: _Family, r: dict, f: float, label: str) -> FieldProfile:
    # the construction of the module docstring, for record fam at resolved
    # params r and split f
    mag, tau = fam.envelope(r)
    rate = r[fam.rate_key] if fam.rate_key else 0.0
    if fam.split:
        _, ratio, integral = fam.solution

        def detuning(t):
            out = ratio(tau(t))
            out *= mag(t)  # in place: one array less per node
            return out
    else:
        beta = fam.solution(r)
        # at resonance the frame calls no envelope for Delta
        detuning = (lambda t: beta * mag(t)) if beta else _const(0.0)

    def omega_z(t):
        return (1.0 - f) * detuning(t) - 0.5 * rate

    # at split 0 Delta sits in Omega alone, so phi_dot evaluates no ratio
    phi_dot = (lambda t: rate + 2.0 * f * detuning(t)) if f else _const(rate)

    def phi(t):  # R(tau(t)) integrates Delta, as dtau = |omega| dt
        t = np.asarray(t, dtype=float)
        return rate * t + 2.0 * f * integral(tau(t)) if f else rate * t
    return FieldProfile(omega_z=omega_z, omega_mag=mag, phi_omega=phi,
                        phi_omega_dot=phi_dot, tau_of_t=tau,
                        detuning=detuning, label=label)


@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one family, looked up by name.

    solution is the family's Theta solution, the one place _build,
    closed_form_series and default_ansatz read it from: either beta, a
    function of the resolved params giving the locked ratio Delta/|omega|,
    which closed_forms.beta0_triple solves, or (triple, r, R), the closed
    triple over tau with the ratio r(tau) it solves and R, the integral of r
    over tau. The split phase needs R, so exactly the families with a pair
    take split_fraction. _build makes the profiles from that ratio, envelope
    (_flat, _sech, _exp or _modulated) and rate_key, the parameter that is
    the constant phase rate (None: 0). The closed form checks the profile's
    detuning against the ratio within tol. ansatz builds the default Theta
    ansatz; None means beta0_ansatz of the locked ratio. The plot axis is
    time_scale_key*t.
    """

    resolver: Callable[[dict], dict]
    envelope: Callable[[dict], tuple[Callable, Callable]]
    time_scale_key: str
    default_t_max: float  # on the dimensionless axis
    description: str
    solution: Callable[[dict], float] | tuple[Callable, Callable, Callable]
    tol: float
    ansatz: Callable[[], ThetaAnsatz] | None = None
    rate_key: str | None = None

    @property
    def split(self) -> bool:
        return isinstance(self.solution, tuple)


_RESONANT = {"solution": lambda r: 0.0, "tol": 1e-10, "ansatz": zero_ansatz,
             "rate_key": "phi_dot0"}

_CATALOG = {
    "rabi": _Family(
        _resolver("rabi", {"omega_z0": 0.5, "omega_mag0": 1.0,
                           "phi_dot0": 1.0}, positive=("omega_mag0",)),
        _flat, "omega_mag0", 4.0 * math.pi,
        "constant (omega_z0, omega_mag0, phi_dot0) triple; oscillation at "
        "the stretched rate sqrt(1+beta^2)|omega0| capped by 1/(1+beta^2)",
        lambda r: (r["omega_z0"] + 0.5 * r["phi_dot0"]) / r["omega_mag0"],
        1e-9, rate_key="phi_dot0"),
    "sech_resonant": _Family(
        _resolver("sech_resonant", {"omega_mag0": 1.0, "phi_dot0": 10.0},
                  positive=("omega_mag0",)),
        _sech, "omega_mag0", 6.0,
        "resonant hyperbolic-secant pulse; flip probability tanh^2",
        **_RESONANT),
    "exp_resonant": _Family(
        _resolve_exp, _exp, "gamma", 20.0,
        "resonant exponentially decaying drive; flip probability saturates "
        "at sin^2(alpha), alpha = omega_mag0/gamma", **_RESONANT),
    "modulated_resonant": _Family(
        _resolve_modulated, _modulated, "phi_dot0", 4.0 * math.pi,
        "resonant cosine-modulated drive; flip probability periodic on the "
        "phi_dot0*t axis when n is an integer", **_RESONANT),
    "constant_beta0": _Family(
        _resolver("constant_beta0", {"beta0": 1.0, "omega_mag0": 1.0},
                  positive=("omega_mag0",), nonnegative=("beta0",)),
        _flat, "omega_mag0", 4.0 * math.pi,
        "detuning locked to beta0*|omega|; flip probability capped at "
        "1/(1+beta0^2)", lambda r: r["beta0"], 1e-10),
    "case1": _Family(
        _resolver("case1", {"omega_mag0": 1.0}, positive=("omega_mag0",)),
        _flat, "omega_mag0", 50.0,
        "arctangent-ansatz detuning; flip probability saturates at 1/2 with "
        "elliptic entry phases",
        (closed_forms.case1_triple, closed_forms.case1_detuning_ratio,
         closed_forms.case1_detuning_integral), 1e-8, case1_ansatz),
    "case2": _Family(
        _resolver("case2", {"omega_mag0": 1.0}, positive=("omega_mag0",)),
        _flat, "omega_mag0", 20.0,
        "arctangent-ansatz detuning; full asymptotic inversion",
        (closed_forms.case2_triple, closed_forms.case2_detuning_ratio,
         closed_forms.case2_detuning_integral), 1e-8, case2_ansatz),
}

FAMILIES = tuple(_CATALOG)


def make_scenario(params: ScenarioParams | str) -> FieldProfile:
    """Build the FieldProfile of a named family.

    A bare family name means all-default parameters. Every built-in profile
    carries analytic phase derivative, detuning and transverse area, so
    nothing downstream needs numerical differentiation for these.
    """
    if isinstance(params, str):
        params = ScenarioParams(family=params)
    r, f = params.params, params.split_fraction
    parts = [f"{k}={v:g}" for k, v in r.items()]
    if f:
        parts.append(f"split={f:g}")
    return _build(_CATALOG[params.family], r, f,
                  f"{params.family}({', '.join(parts)})")


def scenario_time_scale(params: ScenarioParams | str) -> float:
    """Factor u mapping physical time to the family's plot axis u*t."""
    if isinstance(params, str):
        params = ScenarioParams(family=params)
    return float(params.params[_CATALOG[params.family].time_scale_key])


def default_window(family: str) -> tuple[float, int]:
    """(t_max on the dimensionless axis, samples) used when unspecified."""
    check_name("scenario", family, FAMILIES)
    return _CATALOG[family].default_t_max, DEFAULT_SAMPLES


def family_summary() -> list[dict]:
    """Catalog rows for the CLI listing."""
    return [{"family": name, "axis": f"{fam.time_scale_key}*t",
             "default_t_max": fam.default_t_max,
             "defaults": fam.resolver({}),
             "description": fam.description}
            for name, fam in _CATALOG.items()]


def closed_form_series(params: ScenarioParams, profile: FieldProfile, ts):
    """The family's closed-form entries on a time grid, detuning checked."""
    fam = _CATALOG[params.family]
    if fam.split:
        triple, ratio, _ = fam.solution
        what = f"the {params.family} detuning"
    else:
        ratio = fam.solution(params.params)
        triple = closed_forms.beta0_triple(ratio)
        what = f"detuning = {ratio:g} * |omega|"
    solve = closed_forms.closed_solution(triple, ratio)
    return closed_forms.entry_series(profile, ts, solve, tol=fam.tol,
                                     what=what)


def default_ansatz(params: ScenarioParams) -> ThetaAnsatz:
    """The Theta ansatz that solves the family's profiles."""
    fam = _CATALOG[params.family]
    if fam.ansatz:
        return fam.ansatz()
    return beta0_ansatz(fam.solution(params.params))
