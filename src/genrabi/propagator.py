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

With step=None each scheme takes its own automatic step from one error
target, (step * fastest profile scale)^order = _STEP_MARGIN^2, the order read
from _SCHEMES (Hairer, Norsett & Wanner, Solving ODEs I, II.4); CF4's step is
25.8x the midpoint one.

The scale is probed at _SCALE_PROBES points, which a narrow feature can slip
between, so the sweep also bounds step * (|Omega| + |omega|) at its own
nodes, about a step apart: at CF4's automatic step it only catches features
wider than a 25.8x coarser spacing than at midpoint's. On failure the advised
step comes from the peak read on a fine grid around the node that saw most,
so following it once resolves a feature wider than about a hundredth of the
failing step.

The exponentials of each output interval are split into lanes of about
sqrt(total) in acting order, the last lane padded by repeating its last
substep. The sweep evaluates each profile callable once per Gauss node over
this whole lane grid, passing the times in order, and builds the factors in
tiles of about _BLOCK (position, lane) cells: a tile takes the drive in real
form (Omega, |omega| cos phi, |omega| sin phi), records its peak of
|Omega| + |omega|, mixes the scheme rows with the step folded into the
weights, checks that the result is finite, writes the Euler-form factors
into tile-sized arrays, padded cells as identities, and multiplies them into
its lanes' running products, one array update per position, so only the
drive spans the whole run. The lane products are folded into the running
operator two levels deep: running products inside groups of about
sqrt(lanes) lanes, vectorized across groups, then a short scalar fold of the
group totals. A sequential order inside each lane drifts less from
unitarity than a pairwise product tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (ConfigError, NumericError, StepResolutionError,
                     UnitarityDriftError)
from .fields import (DIFF_STEP, FieldProfile, detuning, phase_derivative,
                     window_end)
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
# post: | |a|^2 + |b|^2 - 1 | stays within this, else UnitarityDriftError.
_MAX_DRIFT = 1e-10

# One error target for every scheme: the automatic step h keeps
# (h * fastest scale)^order, the scale probed at _SCALE_PROBES points, at
# _STEP_MARGIN^2. The midpoint scheme keeps h * scale at _STEP_MARGIN, CF4
# at sqrt(_STEP_MARGIN); on the catalog both stay within 1e-6 of the closed
# forms (midpoint up to about 7e-7, CF4 mostly below 1e-8).
_STEP_MARGIN = 0.0015
_SCALE_PROBES = 257

# Most substeps one integration may take. The sweep peaks at about 48
# (midpoint) to 80 (CF4) bytes per substep (tracemalloc, 2e5-substep runs),
# so a run at this cap takes about 0.8 (midpoint) to 1.3 GB (CF4); the
# largest runs of the test suite and the benchmark take under 3e5.
_MAX_SUBSTEPS = 1 << 24

# Cells per tile of the sweep's factor pass: a tile's dozen scratch arrays
# stay in cache between its elementwise passes.
_BLOCK = 1 << 14
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PropagatorConfig:
    """Integration policy.

    step is an upper bound on the internal substep; the integrator divides
    each output interval evenly so the effective substep never exceeds it.
    step=None takes suggested_step(profile, t_max, scheme)'s step from the
    run's one scale probe.
    samples is an integer in [2, _MAX_SUBSTEPS + 1], stored as an int.
    """

    scheme: str = "midpoint_exponential"
    step: float | None = None
    samples: int = 1001

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; choose from {', '.join(SCHEMES)}")
        if self.step is not None and not self.step > 0:
            raise ConfigError("step must be > 0")
        n = self.samples  # range first: int() never sees NaN or inf
        if not (2 <= n <= _MAX_SUBSTEPS + 1 and n == int(n)):
            raise ConfigError(
                f"samples must be an integer in [2, {_MAX_SUBSTEPS + 1}]")
        object.__setattr__(self, "samples", int(n))


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
                     scheme: str | None = None,
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
            label=profile.label,
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
    that is not finite raises NumericError.

    A stencil phase rate is left out at a probe where |omega| is no larger
    than its own change across the stencil: there the drive passes through
    or next to zero, so its phase jumps inside the stencil, while the sweep
    only sees the smooth |omega| e^{i phi}.
    """
    grid = np.linspace(0.0, t_max, _SCALE_PROBES)
    om = np.abs(np.asarray(profile.omega_z(grid), dtype=float))
    mg = np.abs(np.asarray(profile.omega_mag(grid), dtype=float))
    rate = np.abs(np.asarray(phase_derivative(profile, grid), dtype=float))
    if profile.phi_omega_dot is None:
        near = grid + DIFF_STEP * np.array([[-2.0], [-1.0], [1.0], [2.0]])
        ring = np.abs(np.asarray(profile.omega_mag(near.ravel()),
                                 dtype=float)).reshape(near.shape)
        # a NaN spread keeps the rate
        rate[np.max(np.abs(ring - mg), axis=0) >= mg] = 0.0
    scale = float(np.max(np.maximum(om + mg, rate)))
    if not math.isfinite(scale):
        raise NumericError(f"profile {profile.label!r} has no finite scale")
    return scale


def _step_for(scale: float, t_max: float, scheme: str) -> float:
    order = _SCHEMES[scheme][0]
    margin = _STEP_MARGIN ** (2 / order)  # exactly _STEP_MARGIN at order 2
    return min(margin / scale, t_max / 10.0) if scale else t_max / 100.0


def suggested_step(profile: FieldProfile, t_max: float,
                   scheme: str = "midpoint_exponential") -> float:
    """The scheme's automatic step: (step * fastest scale)^order stays at
    _STEP_MARGIN^2, so step * scale is _STEP_MARGIN for the midpoint scheme
    and sqrt(_STEP_MARGIN) for CF4."""
    return _step_for(profile_scale(profile, t_max), t_max, scheme)


def _rotation_factors(ux, uy, uz, f, g, work) -> bool:
    """Write exp(i u.sigma) = [[f, g], [-conj(g), conj(f)]] into f and g.

    f = cos|u| + i uz sinc|u| and g = (uy + i ux) sinc|u|, where
    sinc x = sin(x) / x is 1 at u = 0; u's components and f, g share one
    shape and work holds two float arrays of it. Returns whether every |u|
    is finite.
    """
    angle, sinc = work
    np.multiply(ux, ux, out=angle)
    np.multiply(uy, uy, out=sinc)
    angle += sinc
    np.multiply(uz, uz, out=sinc)
    angle += sinc
    np.sqrt(angle, out=angle)
    finite = math.isfinite(angle.sum())
    np.maximum(angle, _TINY, out=angle)  # sin(_TINY) / _TINY == 1
    np.cos(angle, out=f.real)
    np.sin(angle, out=sinc)
    sinc /= angle
    np.multiply(uz, sinc, out=f.imag)
    np.multiply(uy, sinc, out=g.real)
    np.multiply(ux, sinc, out=g.imag)
    return finite


def _check_resolution(h: float, scale: float, what: str) -> None:
    if h * scale > _RESOLUTION_BOUND:
        raise StepResolutionError(
            f"effective step {h:.3e} does not resolve {what} {scale:.3e} "
            f"(step*scale = {h * scale:.3f} > {_RESOLUTION_BOUND}); use "
            f"step <= {0.05 / scale:.3e}")


def _integrate(profile: FieldProfile, t_max: float, samples: int,
               substeps: int, scheme: str):
    """Core fixed-step sweep. Returns the entries (a, b) at the samples."""
    _, nodes, rows = _SCHEMES[scheme]
    m = len(rows)
    intervals = samples - 1
    total = intervals * substeps
    h = t_max / intervals / substeps

    # interval i's exponentials in acting order, split into `chunks` lanes
    # of `run` whole substeps, the last lane padded by repeating its last
    # substep
    run = min(substeps, max(1, math.isqrt(total * m) // m))
    chunks = -(-substeps // run)
    run = -(-substeps // chunks)
    lanes = intervals * chunks

    def substep(p, l):  # the substep at position p of lane l
        return (l // chunks) * substeps + np.minimum(
            (l % chunks) * run + p, substeps - 1)

    # drive[k] is (Omega, |omega|, phi) at t = substep * h + x_k h for every
    # (p, l); callables get the times lane by lane, one non-decreasing 1-d
    # array, so a phase unwrapped along it stays continuous; the last node
    # shifts the times in place
    times = substep(np.arange(run), np.arange(lanes)[:, None]).ravel() * h
    drive = np.empty((len(nodes), 3, run, lanes))
    for k, (node, x) in enumerate(zip(drive, nodes), 1 - len(nodes)):
        grid = np.add(times, x * h, out=None if k else times)
        for out, fn in zip(node, (profile.omega_z, profile.omega_mag,
                                  profile.phi_omega)):
            out.T[...] = np.broadcast_to(np.asarray(fn(grid), dtype=float),
                                         grid.shape).reshape(lanes, run)
    del times, grid

    # tiles of about _BLOCK cells, `depth` positions by `cols` lanes; scratch
    # rows: (Re omega, Im omega) per node, u, two for the factors, one term;
    # a tile's f[p, j, l], g[p, j, l] is exponential j of its position p of
    # its lane l, and fl, gl hold every lane's product so far
    cols = min(lanes, _BLOCK)
    depth = max(1, _BLOCK // cols)
    scratch = np.empty((2 * len(nodes) + 6, depth * cols))
    factors = np.empty((2, min(depth, run) * m * cols), dtype=complex)
    fl, gl = np.empty((2, lanes), dtype=complex)
    # exponential j is exp(-i h H_j) = exp(i u.sigma) for the rotation
    # vector u = -h (Re omega, -Im omega, Omega) of H_j = sum_k w_jk H(node k)
    signs = (-h, h, -h)
    best = (0.0, 0, 0, 0)  # max |Omega| + |omega|, its node, position, lane
    for p0, l0 in product(range(0, run, depth), range(0, lanes, cols)):
        tile = np.s_[p0:p0 + depth, l0:l0 + cols]
        shape = drive[0, 0][tile].shape
        f, g = factors[:, :m * math.prod(shape)].reshape(2, shape[0], m, -1)
        *nodal, ux, uy, uz, w0, w1, term = scratch[:, :math.prod(shape)] \
            .reshape(-1, *shape)
        parts = []  # per node: (Re omega, Im omega, Omega), u up to -h w
        for k, (om, mg, ph) in enumerate(drive):
            om, mg, ph = om[tile], mg[tile], ph[tile]
            peak = np.abs(om, out=w0)
            peak += np.abs(mg, out=w1)
            p, l = np.unravel_index(peak.argmax(), shape)
            if peak[p, l] > best[0]:
                best = (float(peak[p, l]), k, p0 + p, l0 + l)
            re, im = nodal[2 * k:2 * k + 2]
            np.cos(ph, out=re)
            re *= mg
            np.sin(ph, out=im)
            im *= mg
            parts.append((re, im, om))
        for j, row in enumerate(rows):
            for c, (out, sign) in enumerate(zip((ux, uy, uz), signs)):
                np.multiply(parts[0][c], sign * row[0], out=out)
                for w, part in zip(row[1:], parts[1:]):
                    out += np.multiply(part[c], sign * w, out=term)
            if not _rotation_factors(ux, uy, uz, f[:, j], g[:, j], (w0, w1)):
                _raise_non_finite(profile, drive, substep, h)
        # the padded positions of every interval's last lane are identities
        pad = np.s_[max(substeps - (chunks - 1) * run - p0, 0):, :,
                    (chunks - 1 - l0) % chunks::chunks]
        f[pad], g[pad] = 1.0, 0.0
        # multiply the tile's positions into its lanes' products, later
        # factors on the left: [[F, G], [-G*, F*]]; a run's first tile
        # starts from its first factor
        chain = zip(f.reshape(-1, shape[1]), g.reshape(-1, shape[1]))
        lf, lg = (fl[l0:l0 + cols], gl[l0:l0 + cols]) if p0 else next(chain)
        for fk, gk in chain:
            lf, lg = fk * lf - gk * lg.conj(), fk * lg + gk * lf.conj()
        fl[l0:l0 + cols], gl[l0:l0 + cols] = lf, lg

    # every tile was finite; now the step must resolve the peak
    scale, k, p, l = best
    if h * scale > _RESOLUTION_BOUND:
        # nodes that catch a feature narrower than their spacing on its
        # flank under-read its peak, and the advice with it; read the peak
        # on a fine grid between the neighbours of the node that saw most
        t = int(substep(p, l)) * h + nodes[k] * h
        fine = np.linspace(max(t - h, 0.0), min(t + h, t_max), _SCALE_PROBES)
        scale = max(scale, float(np.max(
            np.abs(np.asarray(profile.omega_z(fine), dtype=float))
            + np.abs(np.asarray(profile.omega_mag(fine), dtype=float)))))
    # the probe in _prepare can miss a pulse narrower than its spacing
    _check_resolution(h, scale, "max |Omega| + |omega| over the sweep nodes")

    # fold the lanes in order into the first column (a, c) of U, two
    # levels deep: running products inside groups of about sqrt(lanes)
    # lanes, vectorized across groups; a scalar fold of the group totals;
    # then each group's start column applied to its running products at once
    group = math.isqrt(lanes - 1) + 1
    groups = -(-lanes // group)
    pf = np.ones(groups * group, dtype=complex)
    pg = np.zeros_like(pf)
    pf[:lanes], pg[:lanes] = fl, gl
    pf, pg = (x.reshape(groups, group).T.copy() for x in (pf, pg))
    for i in range(1, group):
        pf[i], pg[i] = (pf[i] * pf[i - 1] - pg[i] * pg[i - 1].conj(),
                        pf[i] * pg[i - 1] + pg[i] * pf[i - 1].conj())
    a0 = np.empty(groups, dtype=complex)
    c0 = np.empty_like(a0)
    a, c = 1.0 + 0.0j, 0.0j
    for i, (fi, gi) in enumerate(zip(pf[-1].tolist(), pg[-1].tolist())):
        a0[i], c0[i] = a, c
        a, c = fi * a + gi * c, fi.conjugate() * c - gi.conjugate() * a
    # each interval's last lane gives the sample at its end, b = -conj(c)
    a_run = (pf * a0 + pg * c0).T.reshape(-1)[chunks - 1:lanes:chunks]
    c_run = (pf.conj() * c0 - pg.conj() * a0).T.reshape(-1)[
        chunks - 1:lanes:chunks]
    a_out = np.ones(samples, dtype=complex)
    b_out = np.zeros(samples, dtype=complex)
    a_out[1:] = a_run
    b_out[1:] = -np.conj(c_run)
    return a_out, b_out


def _raise_non_finite(profile: FieldProfile, drive, substep, h: float) -> None:
    """Raise NumericError at the first substep whose drive (the sweep's
    [node, component, position, lane] array) is not finite, substep(p, l)
    naming the substep at position p of lane l; return if there is none
    (then only the rotation angle overflowed; the resolution check fails)."""
    bad = ~np.isfinite(drive).all(axis=(0, 1))
    if bad.any():
        raise NumericError(
            f"Hamiltonian of profile {profile.label!r} is not finite in the "
            f"substep from t={int(substep(*np.nonzero(bad)).min()) * h:g}")


def _prepare(profile: FieldProfile, config: PropagatorConfig, window,
             refine: int = 1):
    """(t_max, substeps per output interval, effective step) at config.step
    or the automatic step, after checking from one profile probe that the
    run, refined refine times, stays within _MAX_SUBSTEPS in all and that
    its step resolves the profile."""
    t_max = window_end(window, "integration window")
    scale = profile_scale(profile, t_max)
    step = _step_for(scale, t_max, config.scheme) if config.step is None \
        else config.step
    dt = t_max / (config.samples - 1)
    per_interval = dt / step
    intervals = (config.samples - 1) * refine
    # compare before ceil: a tiny step overflows per_interval to inf
    fits = per_interval <= _MAX_SUBSTEPS
    if fits:
        substeps = max(1, math.ceil(per_interval - 1e-12))
        fits = intervals * substeps <= _MAX_SUBSTEPS
    if not fits:  # each sample interval takes at least one substep
        fix = (f"samples <= {_MAX_SUBSTEPS // refine + 1}"
               if intervals > _MAX_SUBSTEPS else
               f"step >= {refine * t_max / _MAX_SUBSTEPS:.3e}")
        raise ConfigError(
            f"{config.samples} samples at step {step:.3e} over {t_max:g} "
            f"need {intervals * max(1.0, per_interval):.3e} substeps, more "
            f"than the {_MAX_SUBSTEPS} one run may take; use {fix}")
    h = dt / substeps
    _check_resolution(h, scale, "the fastest profile scale")
    return t_max, substeps, h


def propagate(profile: FieldProfile, config: PropagatorConfig,
              window) -> Trajectory:
    """Integrate U(t) from the identity over [0, t_max].

    window is t_max or a (0, t_max) pair. The per-step factors are exactly
    unitary; the accumulated round-off drift is checked against _MAX_DRIFT
    and reported on the trajectory. A profile that is not finite where the
    sweep samples it raises NumericError.
    """
    t_max, substeps, h = _prepare(profile, config, window)
    a, b = _integrate(profile, t_max, config.samples, substeps, config.scheme)
    traj = Trajectory.from_entries(profile,
                                   np.linspace(0.0, t_max, config.samples),
                                   a, b, scheme=config.scheme, step=h)
    if traj.unitarity_drift > _MAX_DRIFT:
        raise UnitarityDriftError(
            f"accumulated unitarity drift {traj.unitarity_drift:.3e} exceeds "
            f"the bound {_MAX_DRIFT:.1e}")
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
