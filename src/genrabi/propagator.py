"""Unitarity-preserving numerical integrator for the two-level Cauchy problem.

This is the independent oracle: it reads only the raw profile functions
(Omega, |omega|, phi_omega) and never consults ansatz machinery or closed
forms. Each step multiplies the running operator by the exact exponential of
a 2x2 traceless Hermitian matrix, written in Euler (Rodrigues) form, so every
step factor is unitary by construction and the only drift is float round-off.

Schemes:

- midpoint_exponential: one exponential per step, Hamiltonian sampled at the
  interval midpoint; global accuracy O(step^2).
- commutator_free_4th: two exponentials per step built from the two Gauss
  nodes; global accuracy O(step^4) without commutator evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepResolutionError, UnitarityDriftError
from .fields import FieldProfile, detuning, phase_derivative, window_end
from .observables import pauli_series

__all__ = [
    "PropagatorConfig",
    "Trajectory",
    "ConvergenceReport",
    "propagate",
    "richardson_check",
    "suggested_step",
    "SCHEMES",
]

SCHEMES = ("midpoint_exponential", "commutator_free_4th")

_NOMINAL_ORDER = {"midpoint_exponential": 2, "commutator_free_4th": 4}

# step exponentials per substep (the round-off floor of richardson_check
# scales with their count)
_EXPONENTIALS = {"midpoint_exponential": 1, "commutator_free_4th": 2}

# Gauss-Legendre nodes on [0,1] and the two-exponential weights.
_GAUSS_SHIFT = math.sqrt(3.0) / 6.0
_NODE_1 = 0.5 - _GAUSS_SHIFT
_NODE_2 = 0.5 + _GAUSS_SHIFT
_WEIGHT_1 = 0.25 - _GAUSS_SHIFT
_WEIGHT_2 = 0.25 + _GAUSS_SHIFT

# pre: effective step times the fastest profile scale stays below this.
_RESOLUTION_BOUND = 0.1

# Most substeps one integration may take. The sweep holds roughly 200
# (midpoint) to 400 (CF4) bytes per substep, so this caps one run at a few
# GB; the largest runs of the test suite and the benchmark take under 3e5.
_MAX_SUBSTEPS = 1 << 24


@dataclass(frozen=True)
class PropagatorConfig:
    """Integration knobs.

    step is an upper bound on the internal substep; the integrator divides
    each output interval evenly so the effective substep never exceeds it.
    """

    scheme: str = "midpoint_exponential"
    step: float = 1e-3
    max_unitarity_drift: float = 1e-10
    samples: int = 1001

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; choose from {', '.join(SCHEMES)}")
        if not self.step > 0:
            raise ConfigError("step must be > 0")
        if not self.max_unitarity_drift >= 0:
            raise ConfigError("max_unitarity_drift must be >= 0")
        if self.samples < 2:
            raise ConfigError("samples must be >= 2")


@dataclass(frozen=True)
class Trajectory:
    """Sampled time series of fields, entries, and derived observables.

    Spin projections are for the initial spin-up eigenstate. t is strictly
    increasing and the first sample carries (a, b) = (1, 0).
    """

    t: np.ndarray
    omega_z: np.ndarray
    omega_mag: np.ndarray
    phi_omega: np.ndarray
    detuning: np.ndarray
    a: np.ndarray
    b: np.ndarray
    p_flip: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray
    label: str
    scheme: str | None
    step: float | None
    unitarity_drift: float

    @classmethod
    def from_entries(cls, profile: FieldProfile, ts, a, b, *,
                     label: str | None = None, scheme: str | None = None,
                     step: float | None = None) -> "Trajectory":
        """Assemble the derived columns from entry arrays on a time grid."""
        ts = np.asarray(ts, dtype=float)
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        sx, sy, sz = pauli_series(a, b, "+")
        drift = float(np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))) \
            if ts.size else 0.0
        return cls(
            t=ts,
            omega_z=np.asarray(profile.omega_z(ts), dtype=float),
            omega_mag=np.asarray(profile.omega_mag(ts), dtype=float),
            phi_omega=np.asarray(profile.phi_omega(ts), dtype=float),
            detuning=np.asarray(detuning(profile, ts), dtype=float),
            a=a, b=b,
            p_flip=np.abs(b) ** 2,
            sigma_x=sx, sigma_y=sy, sigma_z=sz,
            label=label if label is not None else profile.label,
            scheme=scheme, step=step,
            unitarity_drift=drift,
        )


@dataclass(frozen=True)
class ConvergenceReport:
    scheme: str
    nominal_order: float
    observed_order: float
    coarse_diff: float
    fine_diff: float
    within_tolerance: bool
    note: str = ""


def profile_scale(profile: FieldProfile, t_max: float, probes: int = 257) -> float:
    """max over the window of max(|Omega| + |omega|, |phase rate|)."""
    grid = np.linspace(0.0, t_max, probes)
    om = np.abs(np.asarray(profile.omega_z(grid), dtype=float))
    mg = np.abs(np.asarray(profile.omega_mag(grid), dtype=float))
    rate = np.abs(np.asarray(phase_derivative(profile, grid), dtype=float))
    return float(max(np.max(om + mg), np.max(rate)))


def suggested_step(profile: FieldProfile, t_max: float, *,
                   margin: float = 0.0015) -> float:
    """A step that keeps step * fastest-scale at ``margin``.

    The default margin targets closed-form-level accuracy for the default
    second-order scheme, not just stability.
    """
    scale = profile_scale(profile, t_max)
    if scale == 0.0:
        return t_max / 100.0
    return min(margin / scale, t_max / 10.0)


def _hamiltonian_arrays(profile: FieldProfile, grid: np.ndarray):
    om = np.asarray(profile.omega_z(grid), dtype=float)
    mg = np.asarray(profile.omega_mag(grid), dtype=float)
    ph = np.asarray(profile.phi_omega(grid), dtype=float)
    return om, mg * np.exp(1j * ph)


def _step_factors(om: np.ndarray, ow: np.ndarray, h: float):
    # exp(-i h H) for H = [[om, ow], [conj(ow), -om]] in Euler form
    energy = np.hypot(om, np.abs(ow))
    angle = energy * h
    sinc = np.where(energy > 0.0, np.sin(angle) / np.where(energy > 0.0, energy, 1.0), h)
    alpha = np.cos(angle) - 1j * om * sinc
    beta = -1j * ow * sinc
    return alpha, beta


def _integrate(profile: FieldProfile, t_max: float, samples: int,
               substeps: int, scheme: str):
    """Core fixed-step sweep. Returns (ts, a, b, effective_step)."""
    dt = t_max / (samples - 1)
    h = dt / substeps
    total = (samples - 1) * substeps
    base = np.arange(total) * h

    if scheme == "midpoint_exponential":
        om, ow = _hamiltonian_arrays(profile, base + 0.5 * h)
        alphas, betas = _step_factors(om, ow, h)
        factor_sets = [(alphas.tolist(), betas.tolist())]
    else:
        om1, ow1 = _hamiltonian_arrays(profile, base + _NODE_1 * h)
        om2, ow2 = _hamiltonian_arrays(profile, base + _NODE_2 * h)
        first = _step_factors(_WEIGHT_2 * om1 + _WEIGHT_1 * om2,
                              _WEIGHT_2 * ow1 + _WEIGHT_1 * ow2, h)
        second = _step_factors(_WEIGHT_1 * om1 + _WEIGHT_2 * om2,
                               _WEIGHT_1 * ow1 + _WEIGHT_2 * ow2, h)
        factor_sets = [(first[0].tolist(), first[1].tolist()),
                       (second[0].tolist(), second[1].tolist())]

    a_out = np.empty(samples, dtype=complex)
    b_out = np.empty(samples, dtype=complex)
    a_out[0] = 1.0
    b_out[0] = 0.0

    # evolve the first column (a, c) of U; b = -conj(c)
    a = 1.0 + 0.0j
    c = 0.0j
    if scheme == "midpoint_exponential":
        al, be = factor_sets[0]
        k = 0
        for i in range(1, samples):
            for _ in range(substeps):
                f, g = al[k], be[k]
                a, c = f * a + g * c, -g.conjugate() * a + f.conjugate() * c
                k += 1
            a_out[i] = a
            b_out[i] = -c.conjugate()
    else:
        al1, be1 = factor_sets[0]
        al2, be2 = factor_sets[1]
        k = 0
        for i in range(1, samples):
            for _ in range(substeps):
                f, g = al1[k], be1[k]
                a, c = f * a + g * c, -g.conjugate() * a + f.conjugate() * c
                f, g = al2[k], be2[k]
                a, c = f * a + g * c, -g.conjugate() * a + f.conjugate() * c
                k += 1
            a_out[i] = a
            b_out[i] = -c.conjugate()

    ts = np.linspace(0.0, t_max, samples)
    return ts, a_out, b_out, h


def _substeps(config: PropagatorConfig, t_max: float, refine: int = 1) -> int:
    """Substeps per output interval at config.step, after checking that the
    run, refined refine times, stays within _MAX_SUBSTEPS in all."""
    dt = t_max / (config.samples - 1)
    per_interval = dt / config.step
    # compare before ceil: a tiny step overflows per_interval to inf
    fits = per_interval <= _MAX_SUBSTEPS
    if fits:
        substeps = max(1, math.ceil(per_interval - 1e-12))
        fits = (config.samples - 1) * refine * substeps <= _MAX_SUBSTEPS
    if not fits:
        total = (config.samples - 1) * refine * per_interval
        raise ConfigError(
            f"step {config.step:.3e} over a window of {t_max:g} needs "
            f"{total:.3e} substeps, more than the {_MAX_SUBSTEPS} one run "
            f"may take; use step >= "
            f"{refine * t_max / _MAX_SUBSTEPS:.3e}")
    return substeps


def _check_resolution(profile: FieldProfile, t_max: float, h: float) -> None:
    scale = profile_scale(profile, t_max)
    if h * scale > _RESOLUTION_BOUND:
        raise StepResolutionError(
            f"effective step {h:.3e} does not resolve the fastest profile "
            f"scale {scale:.3e} (step*scale = {h * scale:.3f} > "
            f"{_RESOLUTION_BOUND}); use step <= {0.05 / scale:.3e}")


def propagate(profile: FieldProfile, config: PropagatorConfig,
              window) -> Trajectory:
    """Integrate U(t) from the identity over [0, t_max].

    window is t_max or a (0, t_max) pair. The per-step factors are exactly
    unitary; the accumulated round-off drift is checked against
    config.max_unitarity_drift and reported on the trajectory.
    """
    t_max = window_end(window, "integration window")
    substeps = _substeps(config, t_max)
    h = t_max / (config.samples - 1) / substeps
    _check_resolution(profile, t_max, h)
    ts, a, b, h = _integrate(profile, t_max, config.samples, substeps,
                             config.scheme)
    traj = Trajectory.from_entries(profile, ts, a, b, scheme=config.scheme,
                                   step=h)
    if traj.unitarity_drift > config.max_unitarity_drift:
        raise UnitarityDriftError(
            f"accumulated unitarity drift {traj.unitarity_drift:.3e} exceeds "
            f"the configured bound {config.max_unitarity_drift:.1e}")
    return traj


def richardson_check(profile: FieldProfile, config: PropagatorConfig,
                     window) -> ConvergenceReport:
    """Measure the scheme's convergence order on this profile.

    Integrates at the configured substep count and at 2x and 4x refinement,
    then compares successive entry differences; halving the step should
    shrink them by 2^order. Profiles the scheme integrates exactly (a
    diagonal constant Hamiltonian, for instance) leave only round-off, which
    is reported as such rather than as an order estimate. Round-off grows
    with the number N of step exponentials in the finest run, so differences
    at or below 8 eps N count as round-off.
    """
    t_max = window_end(window, "integration window")
    dt = t_max / (config.samples - 1)
    n0 = _substeps(config, t_max, refine=4)
    _check_resolution(profile, t_max, dt / n0)
    runs = [_integrate(profile, t_max, config.samples, n0 * r, config.scheme)
            for r in (1, 2, 4)]
    diffs = []
    for (_, a0, b0, _), (_, a1, b1, _) in zip(runs, runs[1:]):
        diffs.append(float(max(np.max(np.abs(a0 - a1)), np.max(np.abs(b0 - b1)))))
    coarse, fine = diffs
    nominal = float(_NOMINAL_ORDER[config.scheme])
    exponentials = (config.samples - 1) * 4 * n0 * _EXPONENTIALS[config.scheme]
    floor = 8.0 * np.finfo(float).eps * exponentials
    if fine <= floor or coarse <= floor:
        return ConvergenceReport(
            scheme=config.scheme, nominal_order=nominal,
            observed_order=float("nan"), coarse_diff=coarse, fine_diff=fine,
            within_tolerance=True,
            note="differences at round-off; profile integrated exactly at "
                 "this step")
    observed = math.log2(coarse / fine)
    return ConvergenceReport(
        scheme=config.scheme, nominal_order=nominal, observed_order=observed,
        coarse_diff=coarse, fine_diff=fine,
        within_tolerance=abs(observed - nominal) <= 0.3)
