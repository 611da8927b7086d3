"""Closed-form evolution entries for the exactly solvable drive families.

Every family fixes the detuning Delta(t) = Omega(t) + phi_omega_dot(t)/2 in a
way that makes the two-level Cauchy problem integrable, and every family is a
choice of the generating function Theta(tau) on the clock tau = integral of
|omega|. The entries follow from one map (entry_map) of one solution (see
entry_series): the phase triple (Theta, phi_int, r_int)(tau) and its ratio.

- generalized resonance: Delta = 0, Theta = 0, phi_int = tau;
- constant ratio: Delta(t) = beta0 |omega(t)|, a rescaled resonance with
  transition probability capped at 1/(1+beta0^2);
- case1: an arctangent ansatz whose transition probability saturates at 1/2,
  with r_int an incomplete-elliptic-integral term;
- case2: an arctangent ansatz with linearly growing late-time detuning and
  full asymptotic inversion (Landau-Zener-like).

Entries are returned as signed complex numbers; moduli are exposed on the
EvolutionEntries container. The phase convention keeps the global choice
phi_omega(0) = 0 natural but does not require it: the general forms carry
(phi(t) -+ phi(0))/2 factors and reduce to the familiar displays when
phi(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InconsistentProfileError, check_entries,
                     check_numbers, require)
from .fields import FieldProfile, detuning, transverse_area_series
# unused here; benchmarks/gbench/tracer.py patches closed_forms.adaptive_quad
from .quadrature import adaptive_quad  # noqa: F401
from .quadrature import running_integral

__all__ = [
    "EvolutionEntries",
    "entry_map",
    "entry_series",
    "solution_entries",
    "closed_solution",
    "detuning_deviation",
    "resonance_triple",
    "beta0_triple",
    "case1_triple",
    "case2_triple",
    "resonance_entries",
    "resonance_asymptote",
    "modulated_probability",
    "beta0_entries",
    "case1_entries",
    "case2_entries",
    "elliptic_phase",
    "resonance_series",
    "beta0_series",
    "case1_series",
    "case2_series",
    "case1_theta",
    "case2_theta",
    "case1_detuning_ratio",
    "case2_detuning_ratio",
    "case1_detuning_integral",
    "case2_detuning_integral",
    "case1_probability_deficit",
]

_UNITARITY_TOL = 1e-9

# Single-point entries check the detuning on this many points of [0, t].
_CHECK_SAMPLES = 33


@dataclass(frozen=True)
class EvolutionEntries:
    """First-row entries (a, b) of the evolution operator at time t.

    The full operator is [[a, b], [-conj(b), conj(a)]]; |b|^2 is the
    spin-flip probability. b keeps its sign as a complex number; use b_mag
    for the modulus.
    """

    a: complex
    b: complex
    t: float

    def __post_init__(self):
        defect = abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)
        if not defect <= _UNITARITY_TOL:
            raise ConfigError(
                f"entries at t={self.t:g} violate unitarity by {defect:.3e}")

    @property
    def a_mag(self) -> float:
        return abs(self.a)

    @property
    def b_mag(self) -> float:
        return abs(self.b)

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)


# ---------------------------------------------------------------------------
# the shared representation

def entry_map(theta, phi_int, r_int, phi_t, phi_0):
    """Entries (a, b) from the phase triple and the drive phase.

    a = cos(phi_int) e^{i((phi_t - phi_0)/2 - Theta/2 - r_int)} and
    b = sin(phi_int) e^{i((phi_t + phi_0)/2 - Theta/2 + r_int - pi/2)},
    elementwise over arrays. Every closed form and the general Theta route
    are this map applied to their own (Theta, phi_int, r_int).
    """
    half_theta = 0.5 * theta
    a = np.cos(phi_int) * np.exp(
        1j * (0.5 * (phi_t - phi_0) - half_theta - r_int))
    b = np.sin(phi_int) * np.exp(
        1j * (0.5 * (phi_t + phi_0) - half_theta + r_int - 0.5 * np.pi))
    return a, b


def detuning_deviation(profile: FieldProfile, ts, ratio) -> float:
    """max over the grid ts of |Delta(t) - ratio |omega(t)||, Delta from
    Omega and phi_omega_dot (a stated detuning would only check itself).

    ratio is the detuning in units of |omega| that a representation solves,
    a scalar or an array on ts.
    """
    mag = np.asarray(profile.omega_mag(ts), dtype=float)
    return float(np.max(np.abs(detuning(profile, ts) - ratio * mag)))


def entry_series(profile: FieldProfile, ts, solve, *, check: bool = True,
                 tol: float, what: str):
    """Entries on an ascending time grid from one solution.

    solve maps an array of tau to (Theta, phi_int, r_int, ratio): the phase
    triple and the detuning in units of |omega| that it solves (an array or
    a constant). With check the profile's own detuning must match that
    within tol on the grid, else InconsistentProfileError names what the
    profile fails to satisfy. Then solution_entries maps the solution.
    """
    ts = np.asarray(ts, dtype=float)
    solution = solve(transverse_area_series(profile, ts))
    if check and ts.size:
        dev = detuning_deviation(profile, ts, solution[3])
        if not dev <= tol:
            raise InconsistentProfileError(
                f"profile {profile.label!r} does not satisfy {what}: max "
                f"detuning deviation {dev:.3e} > {tol:.1e} on "
                f"[0, {ts[-1]:g}]")
    return solution_entries(profile, ts, solution)


def solution_entries(profile: FieldProfile, ts, solution):
    """entry_series' entries from a solution (Theta, phi_int, r_int, ratio)
    already evaluated on ts; entries that are not finite raise NumericError."""
    ts = np.asarray(ts, dtype=float)
    phi = np.asarray(profile.phi_omega(ts), dtype=float)
    a, b = entry_map(*solution[:3], phi, float(profile.phi_omega(0.0)))
    check_entries(a, b, ts, f"profile {profile.label!r}")
    return a, b


def closed_solution(triple, ratio):
    """The solve of entry_series from a closed triple over tau and the ratio
    it solves, a function of tau or a constant."""
    return lambda tau: (*triple(tau), ratio(tau) if callable(ratio) else ratio)


def check_grid(t: float) -> np.ndarray:
    """The grid a single-point evaluation at t checks and evaluates on."""
    t = float(t)
    return np.linspace(0.0, t, _CHECK_SAMPLES) if t > 0 else np.array([t])


def last_entries(pair, t: float) -> EvolutionEntries:
    """The final sample of an (a, b) series as EvolutionEntries at t."""
    a, b = pair
    return EvolutionEntries(a=complex(a[-1]), b=complex(b[-1]), t=float(t))


def _area_entries(triple, family: str, omega_mag, phi_omega, t: float,
                  tau: float | None) -> EvolutionEntries:
    if tau is None:
        tau = running_integral(omega_mag, float(t), name="t")
    else:
        check_numbers({"tau": tau}, nonnegative=("tau",))
    pair = entry_map(*triple(np.array([float(tau)])), float(phi_omega(t)),
                     float(phi_omega(0.0)))
    check_entries(*pair, [float(t)], f"the {family} closed form")
    return last_entries(pair, t)


# ---------------------------------------------------------------------------
# generalized resonance

def resonance_triple(tau):
    """Theta = 0: phi_int = tau and r_int = 0."""
    tau = np.asarray(tau, dtype=float)
    zero = np.zeros_like(tau)
    return zero, tau + 0.0, zero


def resonance_entries(profile: FieldProfile, t: float, *,
                      tol: float = 1e-10) -> EvolutionEntries:
    """Entries for a generalized-resonant profile (zero detuning).

    a = cos(tau) e^{i phi/2}, b = sin(tau) e^{i(phi/2 - pi/2)} with
    tau the accumulated transverse area; the flip probability is sin^2(tau)
    independent of the phase realization.
    """
    return last_entries(resonance_series(profile, check_grid(t), tol=tol), t)


def resonance_series(profile: FieldProfile, ts: np.ndarray, *,
                     tol: float = 1e-10):
    """Vectorized resonance entries over an ascending time grid."""
    return entry_series(profile, ts, closed_solution(resonance_triple, 0.0),
                        tol=tol, what="the generalized resonance condition")


def resonance_asymptote(alpha: float) -> float:
    """Limit flip probability sin^2(alpha) of the exponential-decay drive.

    alpha is the total transverse area of the decaying pulse; integer
    multiples of pi leave the spin unflipped in the infinite-time limit,
    half-integer multiples invert it completely.
    """
    return float(np.sin(alpha) ** 2)


def modulated_probability(C: float, k: float, n: int, tau_tilde):
    """Flip probability of the cosine-modulated resonant drive.

    P = sin^2[ C (tau_tilde + (k/n) sin(n tau_tilde)) ] on the dimensionless
    axis tau_tilde; periodic with period 2 pi when n is an integer.
    """
    check_numbers({"C": C, "k": k, "n": n}, nonnegative=("k",))
    require(float(n).is_integer() and n > 0, "n", "must be a positive integer")
    x = np.asarray(tau_tilde, dtype=float)
    arg = C * (x + (k / float(n)) * np.sin(float(n) * x))
    out = np.sin(arg) ** 2
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# constant-ratio detuning (Delta = beta0 |omega|)

def beta0_triple(beta0: float):
    """The triple of the locked ratio beta0, as a function of tau.

    With E = sqrt(1 + beta0^2), Theta is the continuous branch of
    atan((beta0/E) tan(E tau)), r_int = Theta/2 and phi_int =
    atan2(sin(E tau)/E, hypot(cos(E tau), (beta0/E) sin(E tau))), a form that
    keeps cos(phi_int) exact where sin(E tau)/E approaches 1. beta0 = 0 is
    the resonance triple.
    """
    beta0 = float(beta0)
    if beta0 == 0.0:
        return resonance_triple
    stretch = math.hypot(1.0, beta0)
    slope = beta0 / stretch
    sign = 1.0 if beta0 > 0 else -1.0

    def triple(tau):
        big = stretch * np.asarray(tau, dtype=float)
        m = np.round(big / np.pi)
        theta = sign * m * np.pi + np.arctan(slope * np.tan(big - m * np.pi))
        sin_big = np.sin(big)
        phi_int = np.arctan2(sin_big / stretch,
                             np.hypot(np.cos(big), slope * sin_big))
        return theta, phi_int, 0.5 * theta
    return triple


def beta0_entries(profile: FieldProfile, beta0: float, t: float, *,
                  tol: float = 1e-10) -> EvolutionEntries:
    """Entries when the detuning is locked to beta0 |omega(t)|.

    The flip probability is sin^2(sqrt(1+beta0^2) tau) / (1+beta0^2): the
    resonant law with the area axis stretched by sqrt(1+beta0^2) and the
    amplitude capped at 1/(1+beta0^2). beta0 = 0 recovers resonance exactly.
    """
    return last_entries(beta0_series(profile, beta0, check_grid(t), tol=tol),
                        t)


def beta0_series(profile: FieldProfile, beta0: float, ts: np.ndarray, *,
                 tol: float = 1e-10):
    beta0 = float(beta0)
    return entry_series(profile, ts,
                        closed_solution(beta0_triple(beta0), beta0),
                        tol=tol, what=f"detuning = {beta0:g} * |omega|")


# ---------------------------------------------------------------------------
# case1: half-flip saturation with elliptic phases

def case1_theta(tau):
    """The case1 generating function Theta = 2 atan(2 tau / sqrt(2 + 4 tau^2))."""
    tau = np.asarray(tau, dtype=float)
    return 2.0 * np.arctan(2.0 * tau / np.sqrt(2.0 + 4.0 * tau ** 2))


def case1_detuning_ratio(tau):
    """Detuning in units of |omega| that the case1 ansatz induces."""
    tau = np.asarray(tau, dtype=float)
    # 4 (1 + tau^2) / ((1 + 4 tau^2) sqrt(2 + 4 tau^2)) in three arrays
    out, quad, den = (np.empty_like(tau) for _ in range(3))
    np.square(tau, out=out)
    np.sqrt(np.add(np.multiply(out, 4.0, out=quad), 2.0, out=den), out=den)
    den *= np.add(quad, 1.0, out=quad)
    np.multiply(np.add(out, 1.0, out=out), 4.0, out=out)
    out /= den
    return float(out) if out.ndim == 0 else out


def case1_detuning_integral(tau):
    """Integral of case1_detuning_ratio from 0 to tau, in closed form."""
    tau = np.asarray(tau, dtype=float)
    out = 0.5 * np.arcsinh(np.sqrt(2.0) * tau) \
        + 1.5 * np.arctan(2.0 * tau / np.sqrt(2.0 + 4.0 * tau ** 2))
    return float(out) if out.ndim == 0 else out


def case1_probability_deficit(tau):
    """How far below 1/2 the case1 flip probability sits: 1/(2 sqrt(1+4 tau^2))."""
    tau = np.asarray(tau, dtype=float)
    out = 0.5 / np.sqrt(1.0 + 4.0 * tau ** 2)
    return float(out) if out.ndim == 0 else out


def elliptic_phase(tau: float) -> float:
    """The real elliptic-integral term in the case1 entry phases.

    Equals -(1/sqrt(2)) integral of sqrt(1 + sinh(u)^2 / 2) for u from 0 to
    asinh(2 tau), evaluated by real panel quadrature (no complex-argument
    special functions). It is minus the generic phase quadrature of the case1
    ansatz; the variable and integrand differ from case1_triple's tau form,
    so the two provide an independent cross-check.
    """
    check_numbers({"tau": tau}, nonnegative=("tau",))
    upper = float(np.arcsinh(2.0 * tau))
    integral = running_integral(
        lambda u: np.sqrt(1.0 + 0.5 * np.sinh(u) ** 2), upper, tol=1e-12)
    return -float(integral) / np.sqrt(2.0)


def _case1_r_integrand(s):
    # d/dtau of the case1 phase quadrature, algebraically simplified
    return np.sqrt((2.0 + 4.0 * s * s) / (1.0 + 4.0 * s * s))


def case1_triple(tau):
    """Theta = case1_theta and phi_int = atan(2 tau)/2 in closed form; r_int
    (= -elliptic_phase) by one panel quadrature over the tau array."""
    tau = np.asarray(tau, dtype=float)
    return (case1_theta(tau), 0.5 * np.arctan(2.0 * tau),
            running_integral(_case1_r_integrand, tau))


def case1_entries(omega_mag, phi_omega, t: float, *,
                  tau: float | None = None) -> EvolutionEntries:
    """Case1 entries from the transverse drive alone.

    The caller is responsible for pairing these with a profile whose detuning
    follows case1_detuning_ratio; use case1_series for a checked evaluation.
    omega_mag is called on arrays, as a FieldProfile's is, for the panel
    quadrature of tau (a constant or a scalar-only callable serves too, see
    quadrature.on_arrays); passing tau skips it.
    """
    return _area_entries(case1_triple, "case1", omega_mag, phi_omega, t, tau)


def case1_series(profile: FieldProfile, ts: np.ndarray, *, tol: float = 1e-8):
    return entry_series(profile, ts,
                        closed_solution(case1_triple, case1_detuning_ratio),
                        tol=tol, what="the case1 detuning")


# ---------------------------------------------------------------------------
# case2: Landau-Zener-like full inversion

def case2_theta(tau):
    """The case2 generating function Theta = 2 atan(tau / sqrt(2 + tau^2))."""
    tau = np.asarray(tau, dtype=float)
    return 2.0 * np.arctan(tau / np.sqrt(2.0 + tau ** 2))


def case2_detuning_ratio(tau):
    """Detuning in units of |omega| that the case2 ansatz induces."""
    tau = np.asarray(tau, dtype=float)
    # (2 + (1 - tau^2)(2 + tau^2)) / (2 (1 + tau^2) sqrt(2 + tau^2))
    out, shift, den = (np.empty_like(tau) for _ in range(3))
    np.add(np.square(tau, out=den), 2.0, out=shift)
    np.multiply(np.subtract(1.0, den, out=out), shift, out=out)
    out += 2.0
    np.multiply(np.add(den, 1.0, out=den), 2.0, out=den)
    den *= np.sqrt(shift, out=shift)
    out /= den
    return float(out) if out.ndim == 0 else out


def case2_detuning_integral(tau):
    """Integral of case2_detuning_ratio from 0 to tau, in closed form."""
    tau = np.asarray(tau, dtype=float)
    out = -0.25 * tau * np.sqrt(2.0 + tau ** 2) \
        + 0.5 * np.arcsinh(tau / np.sqrt(2.0)) \
        + 2.0 * np.arctan(tau / np.sqrt(2.0 + tau ** 2))
    return float(out) if out.ndim == 0 else out


def case2_triple(tau):
    """phi_int = atan(tau); r_int = integral of sqrt(2 + s^2)/2 over [0, tau]."""
    tau = np.asarray(tau, dtype=float)
    r_int = 0.5 * (0.5 * tau * np.sqrt(2.0 + tau ** 2)
                   + np.arcsinh(tau / np.sqrt(2.0)))
    return case2_theta(tau), np.arctan(tau), r_int


def case2_entries(omega_mag, phi_omega, t: float, *,
                  tau: float | None = None) -> EvolutionEntries:
    """Case2 entries from the transverse drive alone.

    Flip probability tau^2 / (1 + tau^2): monotone inversion approaching 1.
    Pair with a profile following case2_detuning_ratio; use case2_series for
    a checked evaluation. omega_mag is taken as in case1_entries.
    """
    return _area_entries(case2_triple, "case2", omega_mag, phi_omega, t, tau)


def case2_series(profile: FieldProfile, ts: np.ndarray, *, tol: float = 1e-8):
    return entry_series(profile, ts,
                        closed_solution(case2_triple, case2_detuning_ratio),
                        tol=tol, what="the case2 detuning")
