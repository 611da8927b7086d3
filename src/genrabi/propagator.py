"""Unitarity-preserving numerical integrator for the two-level Cauchy problem.

This is the independent oracle: it reads only the raw profile functions
(Omega, |omega|, phi_omega) and never consults ansatz machinery or closed
forms. Each step multiplies the running operator by the exact exponential of
a 2x2 traceless Hermitian matrix, written in Euler (Rodrigues) form, so every
step factor is unitary by construction and the only drift is float round-off.

A scheme is one row of the _SCHEMES table: its nominal order, the Gauss
nodes x_k on [0, 1] where a substep of length h samples the Hamiltonian, and
one weight row per step exponential, in acting order; exponential j is
exp(-i h sum_k w_jk H(t + x_k h)). Adding a scheme means adding one row.
midpoint_exponential: one exponential at the interval midpoint, O(step^2);
commutator_free_4th: two from the two Gauss nodes, O(step^4), no commutators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import mul

import numpy as np

from .errors import (ConfigError, NumericError, StepResolutionError,
                     UnitarityDriftError)
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

_GAUSS_SHIFT = math.sqrt(3.0) / 6.0

# name -> (nominal order, Gauss nodes, weight rows), as the docstring says
_SCHEMES = {
    "midpoint_exponential": (2, (0.5,), ((1.0,),)),
    "commutator_free_4th": (
        4, (0.5 - _GAUSS_SHIFT, 0.5 + _GAUSS_SHIFT),
        ((0.25 + _GAUSS_SHIFT, 0.25 - _GAUSS_SHIFT),
         (0.25 - _GAUSS_SHIFT, 0.25 + _GAUSS_SHIFT))),
}

SCHEMES = tuple(_SCHEMES)

# pre: effective step times the fastest profile scale stays below this.
_RESOLUTION_BOUND = 0.1

# suggested_step keeps step * fastest scale, probed at _SCALE_PROBES points,
# at _STEP_MARGIN: closed-form-level accuracy for the second-order scheme
_STEP_MARGIN = 0.0015
_SCALE_PROBES = 257

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


def profile_scale(profile: FieldProfile, t_max: float) -> float:
    """max over the window of max(|Omega| + |omega|, |phase rate|); a scale
    that is not finite raises NumericError."""
    grid = np.linspace(0.0, t_max, _SCALE_PROBES)
    om = np.abs(np.asarray(profile.omega_z(grid), dtype=float))
    mg = np.abs(np.asarray(profile.omega_mag(grid), dtype=float))
    rate = np.abs(np.asarray(phase_derivative(profile, grid), dtype=float))
    scale = float(np.max(np.maximum(om + mg, rate)))
    if not math.isfinite(scale):
        raise NumericError(f"profile {profile.label!r} has no finite scale")
    return scale


def suggested_step(profile: FieldProfile, t_max: float) -> float:
    """A step that keeps step * fastest-scale at _STEP_MARGIN."""
    scale = profile_scale(profile, t_max)
    if scale == 0.0:
        return t_max / 100.0
    return min(_STEP_MARGIN / scale, t_max / 10.0)


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
    """Core fixed-step sweep. Returns the entries (a, b) at the samples."""
    _, nodes, rows = _SCHEMES[scheme]
    h = t_max / (samples - 1) / substeps
    base = np.arange((samples - 1) * substeps) * h
    hams = [_hamiltonian_arrays(profile, base + x * h) for x in nodes]
    mixed = [[reduce(np.add, map(mul, row, part)) for part in zip(*hams)]
             for row in rows]
    del hams  # freed before the step factors' temporaries peak
    ok = np.logical_and.reduce([np.isfinite(x) for ham in mixed for x in ham])
    if not ok.all():
        raise NumericError(
            f"Hamiltonian of profile {profile.label!r} is not finite in the "
            f"substep from t={base[np.argmin(ok)]:g}")
    factors = [_step_factors(om, ow, h) for om, ow in mixed]
    # exponential j of substep k sits at k * m + j: acting order
    m = len(rows)
    al, be = [None] * (m * base.size), [None] * (m * base.size)
    for j, (alpha, beta) in enumerate(factors):
        al[j::m] = alpha.tolist()
        be[j::m] = beta.tolist()
    steps = zip(al, be)

    a_out = np.ones(samples, dtype=complex)
    b_out = np.zeros(samples, dtype=complex)

    # evolve the first column (a, c) of U; b = -conj(c)
    a = 1.0 + 0.0j
    c = 0.0j
    for i in range(1, samples):
        for f, g in islice(steps, substeps * m):
            a, c = f * a + g * c, -g.conjugate() * a + f.conjugate() * c
        a_out[i] = a
        b_out[i] = -c.conjugate()
    return a_out, b_out


def _prepare(profile: FieldProfile, config: PropagatorConfig, window,
             refine: int = 1):
    """(t_max, substeps per output interval, effective step) at config.step,
    after checking that the run, refined refine times, stays within
    _MAX_SUBSTEPS in all and that its step resolves the profile."""
    t_max = window_end(window, "integration window")
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
    h = dt / substeps
    scale = profile_scale(profile, t_max)
    if h * scale > _RESOLUTION_BOUND:
        raise StepResolutionError(
            f"effective step {h:.3e} does not resolve the fastest profile "
            f"scale {scale:.3e} (step*scale = {h * scale:.3f} > "
            f"{_RESOLUTION_BOUND}); use step <= {0.05 / scale:.3e}")
    return t_max, substeps, h


def propagate(profile: FieldProfile, config: PropagatorConfig,
              window) -> Trajectory:
    """Integrate U(t) from the identity over [0, t_max].

    window is t_max or a (0, t_max) pair. The per-step factors are exactly
    unitary; the accumulated round-off drift is checked against
    config.max_unitarity_drift and reported on the trajectory. A profile
    that is not finite where the sweep samples it raises NumericError.
    """
    t_max, substeps, h = _prepare(profile, config, window)
    a, b = _integrate(profile, t_max, config.samples, substeps, config.scheme)
    traj = Trajectory.from_entries(profile,
                                   np.linspace(0.0, t_max, config.samples),
                                   a, b, scheme=config.scheme, step=h)
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
    t_max, n0, _ = _prepare(profile, config, window, refine=4)
    runs = [_integrate(profile, t_max, config.samples, n0 * r, config.scheme)
            for r in (1, 2, 4)]
    coarse, fine = (
        float(max(np.max(np.abs(a0 - a1)), np.max(np.abs(b0 - b1))))
        for (a0, b0), (a1, b1) in zip(runs, runs[1:]))
    order, _, rows = _SCHEMES[config.scheme]
    exponentials = (config.samples - 1) * 4 * n0 * len(rows)
    floor = 8.0 * np.finfo(float).eps * exponentials
    exact = bool(fine <= floor or coarse <= floor)
    observed = float("nan") if exact else math.log2(coarse / fine)
    return ConvergenceReport(
        scheme=config.scheme, nominal_order=float(order),
        observed_order=observed, coarse_diff=coarse, fine_diff=fine,
        within_tolerance=exact or abs(observed - order) <= 0.3,
        note="differences at round-off; profile integrated exactly at this "
             "step" if exact else "")
