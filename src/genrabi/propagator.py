"""Unitarity-preserving numerical integrator for the two-level Cauchy problem.

This is the independent oracle: it reads only the raw profile functions
(Omega, |omega|, phi_omega, phi_omega_dot when given) and never consults
ansatz machinery or closed forms. Each step multiplies the running operator
by the exact exponential of a 2x2 traceless Hermitian matrix, written in
Euler (Rodrigues) form, so every step factor is unitary by construction and
the only drift is float round-off. A resolved run keeps every angle |u| <= h
(|Omega| + |omega|) sum |w| <= _RESOLUTION_BOUND; there cos|u| and sinc|u|
are Taylor polynomials in |u|^2 (no sqrt, trig or divide), cut before the
first term below eps 2^-13 at the call's largest |u|^2. A term left out errs
alike in every factor, and over a run's at most 2^25 factors stays under eps
sqrt(2^25), round-off's random walk (cut at eps/4, 4e4 midpoint factors
drifted 5.3e-13, not 7.8e-15). Larger angles (shared-axis sums, runs about
to fail the resolution check) take sqrt and trig.

A scheme is one row of the _SCHEMES table: its nominal order, the Gauss
nodes x_k on [0, 1] where a substep of length h samples the Hamiltonian, and
one weight row per step exponential, in acting order; exponential j is
exp(-i h sum_k w_jk H(t + x_k h)). Adding a scheme means adding one row.
midpoint_exponential: one exponential at the interval midpoint, O(step^2);
commutator_free_4th: two from the two Gauss nodes, O(step^4), no commutators.

A profile with an analytic phi_omega_dot (every catalog family and coupling of
one stated phase) is integrated in the frame rotating with phi/2 (_in_frame),
where the step need not resolve the turning drive and a constant detuning is
integrated exactly; propagate maps the entries back at the samples. Others run
in the lab frame. The frame's drive is real, H = [[Delta, |omega|], [|omega|,
-Delta]]: the sweep evaluates Delta (a stated detuning when given) and |omega|
only, and no phase. While every drive sample lies on the axis of the first
nonzero one (an exact zero cross product, stricter than one on the rotation
vectors), the exponentials commute, so each lane keeps the sum of its rotation
vectors. Where the axis breaks, each lane takes one exponential of its sum and
the chain below goes on; a run that ends on it takes U at each sample as one
exponential of the running sum over the lanes, with the rounding error of
every addition added back (TwoSum), and no fold. That serves a constant drive
in either frame (rabi, constant_beta0, a constant coupling or field) and
generalized resonance, Delta = 0 (sech, exp and modulated resonant, such a
coupling at delta = 0); case1, case2 and turning lab-frame drives leave the
axis in their first tile and run the chain below. Over 4M midpoint substeps
rabi drifts 6.7e-16 from unitarity: 3.2e-13 with one exponential per lane and
the fold, 1.7e-10 with the factors multiplied one by one.

With step=None each scheme takes its own automatic step from one error
target, (step * fastest profile scale)^order = _STEP_MARGIN^2, the order read
from _SCHEMES (Hairer, Norsett & Wanner, Solving ODEs I, II.4); CF4's step is
25.8x the midpoint one.

The scale (profile_scale) is probed at _SCALE_PROBES points, which a
narrow feature can slip between, so the sweep also bounds step * (|Omega|
+ |omega|) at its own nodes, about a step apart: at CF4's automatic step it
only catches features wider than a 25.8x coarser spacing than at
midpoint's. On failure the advised step comes from the peak read on a fine
grid around the node that saw most, so following it once resolves a
feature wider than about a hundredth of the failing step.

The exponentials of each output interval are split into lanes of about
sqrt(total) in acting order, the last lane padded by repeating its last
substep. The sweep evaluates each profile callable once per Gauss node per
block of whole tile rows (about _DRIVE cells), a real drive's times in the
block's position-major order, a lab drive's lane by lane in time order, and
runs that block's tiles of about _BLOCK (position, lane) cells before the
next, so its memory does not grow with the run. A tile takes the drive in
real form (Omega, |omega| cos phi, |omega| sin phi), zeroed in padded cells,
and records its peak of |Omega| + |omega|. On a shared axis it adds its
weighted drive sums to the lane sums; off it, it mixes the scheme rows with
the step folded into the weights into rotation vectors, checks that they
are finite, writes the Euler-form factors and multiplies them into its
lanes' running products, one update per position. The lane
products are folded into the running operator two levels deep: running
products inside groups of about sqrt(lanes) lanes, vectorized across groups,
then a short scalar fold of the group totals. A sequential order inside each
lane drifts less from unitarity than a pairwise product tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations, product

import numpy as np

from .errors import (ConfigError, NumericError, StepResolutionError,
                     UnitarityDriftError, check_entries, check_name)
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

# Most substeps one integration may take. The sweep's memory does not grow
# with the run: its tracemalloc peak on exp_resonant is about 4.7 (midpoint)
# to 7.6 MB (CF4) from 2e5 substeps up to this cap; the largest runs of the
# test suite and the benchmark take under 3e5.
_MAX_SUBSTEPS = 1 << 24

# Cells per tile of the sweep's factor pass: a tile's dozen scratch arrays
# stay in cache between its elementwise passes.
_BLOCK = 1 << 14
# Cells per Gauss node of a drive block of whole tile rows across every
# lane, at least one row: a run of up to 49,152 cells takes one block.
_DRIVE = 1 << 16
_TINY = np.finfo(float).tiny
_SMALL = _RESOLUTION_BOUND ** 2  # |u|^2 of every factor of a resolved run
_LEFT_OUT = np.finfo(float).eps / 2 ** 13  # see the module docstring
# (least s at which the term of s^k reaches _LEFT_OUT, coefficient) in cos x
# and sinc x as series in s = x^2, k = 0..5; s^6 stays below up to _SMALL
_COS, _SINC = ([((_LEFT_OUT * math.factorial(2 * k + i)) ** (1 / k) if k
                 else 0.0, (-1) ** k / math.factorial(2 * k + i))
                for k in range(6)] for i in (0, 1))
_RATE_TOL = 1e-9  # see profile_scale
# profile_scale's last (profile, t_max, scale): suggested_step, propagate and
# richardson_check on one profile object and window probe it once
_last_scale = (None, None, 0.0)


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
        check_name("scheme", self.scheme, SCHEMES)
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


def _in_frame(profile: FieldProfile) -> FieldProfile:
    """The profile the sweep integrates: with an analytic phi_omega_dot,
    as seen from the frame rotating with phi/2, where H = [[Delta, |omega|],
    [|omega|, -Delta]], Delta = Omega + phi_omega_dot/2 or the stated
    detuning: a real drive, which carries no phase (phi_omega and
    phi_omega_dot None); else the profile itself."""
    if profile.phi_omega_dot is None:
        return profile
    delta = profile.detuning or partial(detuning, profile)
    return replace(profile, omega_z=delta, phi_omega=None, phi_omega_dot=None)


def profile_scale(profile: FieldProfile, t_max: float) -> float:
    """The largest over the window, in the sweep's frame, of |Omega| +
    |omega|, the slew sqrt((max |change| of Omega + that of |omega|) / probe
    spacing) and, in the lab frame, the phase rate. A scale that is not
    finite, or in the frame a phase, rate or Omega that is not, raises
    NumericError; then ConfigError where phi_omega_dot (rate) misses the
    stencil of phi_omega by _RATE_TOL (1 + |rate| + |phi|), or the detuning
    Omega + rate/2 (Delta) by _RATE_TOL (1 + |rate| + |Delta|).

    A stencil phase rate is left out at a probe where |omega| is no larger
    than its own change across the stencil: there the drive passes through
    or next to zero, so its phase jumps inside the stencil, while the sweep
    only sees the smooth |omega| e^{i phi}.

    The scale of the last profile object and t_max is kept: a profile's
    callables depend on t alone.
    """
    global _last_scale
    last, last_t, last_scale = _last_scale  # one read: a thread may replace it
    if last is profile and last_t == t_max:
        return last_scale
    grid = np.linspace(0.0, t_max, _SCALE_PROBES)
    frame = _in_frame(profile)
    om = np.asarray(frame.omega_z(grid), dtype=float)
    mg = np.abs(np.asarray(frame.omega_mag(grid), dtype=float))
    near = grid + DIFF_STEP * np.array([[-2.0], [-1.0], [1.0], [2.0]])
    rate = 0.0  # the frame's drive does not turn
    if frame is profile:
        rate = np.abs(np.asarray(phase_derivative(profile, grid), dtype=float))
        ring = np.abs(np.asarray(profile.omega_mag(near.ravel()),
                                 dtype=float)).reshape(near.shape)
        # a NaN spread keeps the rate
        rate[np.max(np.abs(ring - mg), axis=0) >= mg] = 0.0
    slew = math.sqrt(sum(float(np.max(np.abs(np.diff(x)))) for x in (om, mg))
                     / grid[1])
    scale = float(np.max(np.append(np.maximum(np.abs(om) + mg, rate), slew)))
    if not math.isfinite(scale):
        raise NumericError(f"profile {profile.label!r} has no finite scale")
    if frame is not profile:  # the frame trusts phi_omega_dot and Delta (om)
        given = np.asarray(profile.phi_omega_dot(grid), dtype=float)
        # not unwrapped: that aliases a rate past pi / DIFF_STEP
        s = [np.asarray(profile.phi_omega(x), dtype=float) for x in near]
        stencil = (s[0] - 8.0 * s[1] + 8.0 * s[2] - s[3]) / (12.0 * DIFF_STEP)
        phi = np.abs(np.asarray(profile.phi_omega(grid), dtype=float))
        delta = np.asarray(profile.omega_z(grid), dtype=float) + 0.5 * given
        # the sweep reads none of these, and a NaN passes the checks below
        lost = ~np.isfinite([given, stencil, phi, delta]).all(axis=0)
        if lost.any():
            raise NumericError(f"profile {profile.label!r} has no finite "
                               f"phase or detuning near t={grid[lost][0]:g}")
        # the stencil's round-off is about 2e-11 |phi|
        for name, value, ref, bound, law in (
                ("phi_omega_dot", given, stencil, phi,
                 "the derivative of phi_omega"),
                ("detuning", om, delta, np.abs(delta),
                 "Omega + phi_omega_dot/2")):
            bad = np.flatnonzero(np.abs(value - ref) > _RATE_TOL * (
                1.0 + np.abs(given) + bound))
            if bad.size:
                i = bad[0]
                raise ConfigError(
                    f"profile {profile.label!r}: {name} {value[i]:.9g} at "
                    f"t={grid[i]:g} is not {law} ({ref[i]:.9g})")
    _last_scale = (profile, t_max, scale)
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


def _horner(s, series, top, out) -> None:
    # the terms of series that some s <= top needs, by Horner's rule
    coefficients = [c for need, c in series if need <= top]
    out.fill(coefficients.pop())
    for c in reversed(coefficients):
        out *= s
        out += c


def _rotation_factors(ux, uy, uz, f, g, work) -> bool:
    """Write exp(i u.sigma) = [[f, g], [-conj(g), conj(f)]] into f and g.

    f = cos|u| + i uz sinc|u| and g = (uy + i ux) sinc|u|, where
    sinc x = sin(x) / x is 1 at u = 0; u's components and f, g share one
    shape, uy=None stands for uy = 0, and work holds two float arrays of
    that shape; while every |u|^2 <= _SMALL, cos and sinc are Taylor
    polynomials in |u|^2 (_COS, _SINC). Returns whether every |u| is finite.
    """
    angle, sinc = work
    np.multiply(ux, ux, out=angle)
    if uy is not None:
        angle += np.multiply(uy, uy, out=sinc)
    angle += np.multiply(uz, uz, out=sinc)
    top = float(angle.max())
    if top <= _SMALL:  # False for a NaN
        _horner(angle, _COS, top, sinc)  # contiguous, then one strided copy
        f.real = sinc
        _horner(angle, _SINC, top, sinc)
    else:
        np.sqrt(angle, out=angle)
        np.maximum(angle, _TINY, out=angle)  # sin(_TINY) / _TINY == 1
        np.cos(angle, out=f.real)
        np.sin(angle, out=sinc)
        sinc /= angle
    np.multiply(uz, sinc, out=f.imag)
    if uy is None:
        g.real = 0.0
    else:
        np.multiply(uy, sinc, out=g.real)
    np.multiply(ux, sinc, out=g.imag)
    return math.isfinite(top)


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
    real = profile.phi_omega is None  # the frame's drive: (Delta, |omega|)
    comps = 2 if real else 3
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

    # tiles of `depth` positions by `cols` lanes, at most `cut` cells, in
    # blocks of `span` positions; fl, gl, every lane's product so far, live
    # in the fold's padded arrays
    cols = min(lanes, _BLOCK)
    depth = max(1, _BLOCK // cols)
    cut = min(depth, run) * cols
    span = depth * max(1, _DRIVE // (depth * lanes))
    group = math.isqrt(lanes - 1) + 1
    groups = -(-lanes // group)
    pf = np.ones(groups * group, dtype=complex)
    pg = np.zeros_like(pf)
    fl, gl = pf[:lanes], pg[:lanes]

    def evaluate(b0, drive):
        # drive[k] gets (Omega, |omega|, phi), or (Omega, |omega|) for a
        # real drive, at t = substep * h + x_k h from position b0 on. A
        # real drive's callables get the times in the block's own order,
        # position by position; a lab drive's get them lane by lane, one
        # sorted 1-d array, so a phase unwrapped along it stays continuous.
        # The last node shifts them in place
        drive = drive[:, :, :run - b0]
        p, l = np.arange(b0, b0 + drive.shape[2]), np.arange(lanes)
        times = (substep(p[:, None], l) if real
                 else substep(p, l[:, None])).ravel() * h
        for k, (node, x) in enumerate(zip(drive, nodes), 1 - len(nodes)):
            grid = np.add(times, x * h, out=None if k else times)
            for out, fn in zip(node if real else node.transpose(0, 2, 1), (
                    profile.omega_z, profile.omega_mag, profile.phi_omega)):
                value = np.asarray(fn(grid), dtype=float)  # or a constant
                out[...] = value.reshape(out.shape) if value.ndim else value
        return drive

    # scratch rows: (Re omega, Im omega) per node, two for the factors, one
    # term, u per exponential; a tile's f[p, j, l], g[p, j, l] is
    # exponential j of its position p of its lane l. One allocation:
    # glibc's malloc keeps twice its largest freed block for reuse, so the
    # sweep's memory stays mapped between calls (as three arrays it was
    # faulted in again at most calls)
    head = 4 * m * cut
    tail = head + (2 * len(nodes) + 3 + comps * m) * cut
    work = np.empty(tail + comps * len(nodes) * min(span, run) * lanes)
    factors = work[:head].view(complex).reshape(2, -1)
    scratch = work[head:tail].reshape(-1, cut)
    drive = work[tail:].reshape(len(nodes), comps, -1, lanes)
    # exponential j is exp(-i h H_j) = exp(i u.sigma) for the rotation
    # vector u = -h (Re omega, -Im omega, Omega) of H_j = sum_k w_jk H(node k),
    # u = -h (|omega|, 0, Delta) for a real drive
    signs = (-h, -h) if real else (-h, h, -h)
    weights = [sum(w) for w in zip(*rows)]  # node k's sum_j w_jk
    best = (0.0, 0, 0, 0)  # max |Omega| + |omega|, its node, position, lane
    # while every drive sample so far lies on the axis of the first nonzero
    # one, the lanes hold their sums of u, not products
    shared, axis = True, None
    sums = np.zeros((comps, lanes))
    # commuting exponentials: a lane's product is the exponential of its sum
    products_from_sums = partial(_rotation_factors, sums[0],
                                 None if real else sums[1], sums[-1], fl, gl,
                                 np.empty((2, lanes)))
    for p0, l0 in product(range(0, run, depth), range(0, lanes, cols)):
        q = p0 % span  # the tile's first position in its block
        if q == l0 == 0:
            block = evaluate(p0, drive)
        tile = np.s_[q:q + depth, l0:l0 + cols]
        shape = block[0, 0][tile].shape
        f, g = factors[:, :m * math.prod(shape)].reshape(2, shape[0], m, -1)
        cells = scratch[:, :math.prod(shape)].reshape(-1, *shape)
        *nodal, w0, w1, term = cells[:2 * len(nodes) + 3]
        u = cells[2 * len(nodes) + 3:].reshape(m, comps, *shape)
        # the padded positions of every interval's last lane turn by 0; they
        # repeat a substep, so the peak stays
        block[:, :, q:q + depth, l0:l0 + cols][
            ..., max(substeps - (chunks - 1) * run - p0, 0):,
            (chunks - 1 - l0) % chunks::chunks] = 0.0
        parts = []  # per node: the drive in u's components, up to -h w
        for k, (om, mg, *ph) in enumerate(block):
            om, mg = om[tile], mg[tile]
            peak = np.abs(om, out=w0)
            peak += np.abs(mg, out=w1)
            p, l = divmod(int(peak.argmax()), shape[1])
            if peak[p, l] > best[0]:
                best = (float(peak[p, l]), k, p0 + p, l0 + l)
            if real:
                parts.append((mg, om))
                continue
            re, im = nodal[2 * k:2 * k + 2]
            np.cos(ph[0][tile], out=re)
            re *= mg
            np.sin(ph[0][tile], out=im)
            im *= mg
            parts.append((re, im, om))
        if shared:
            for part in parts if axis is None else ():
                moving = np.any(part, axis=0)
                if moving.any():
                    axis = [x.flat[moving.argmax()] for x in part]
                    break
            # an exact zero cross product of the drive samples; a
            # non-finite one never passes
            shared = axis is None or not any(
                (part[c] * axis[d] - part[d] * axis[c]).any()
                for part in parts for c, d in combinations(range(comps), 2))
            if shared:  # the sum of the tile's u, lane by lane
                for part, weight in zip(parts, weights):
                    for c, sign in enumerate(signs):
                        sums[c, l0:l0 + cols] += \
                            sign * weight * part[c].sum(axis=0)
                continue
            if sums.any():  # else every lane product is still the identity
                products_from_sums()
        for uj, row in zip(u, rows):
            for c, (out, sign) in enumerate(zip(uj, signs)):
                np.multiply(parts[0][c], sign * row[0], out=out)
                for w, part in zip(row[1:], parts[1:]):
                    out += np.multiply(part[c], sign * w, out=term)
        for j, uj in enumerate(u):
            if not _rotation_factors(uj[0], None if real else uj[1], uj[-1],
                                     f[:, j], g[:, j], (w0, w1)):
                _raise_non_finite(profile, (
                    (b0, evaluate(b0, np.empty_like(drive)))
                    for b0 in range(p0 - q, run, span)), substep, h)
        # each position's factors [[F, G], [-G*, F*]] onto its lanes' products
        lf, lg = fl[l0:l0 + cols], gl[l0:l0 + cols]
        for fk, gk in zip(f.reshape(-1, shape[1]), g.reshape(-1, shape[1])):
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
    a_out = np.ones(samples, dtype=complex)
    b_out = np.zeros(samples, dtype=complex)
    if shared:
        # the whole run turned about one axis: U at each sample is one
        # exponential of the running sum over its lanes, with the rounding
        # error of every addition added back (TwoSum; Ogita, Rump & Oishi,
        # SIAM J. Sci. Comput. 26, 2005)
        cum = np.cumsum(sums, axis=1)
        last, added = cum[:, :-1], cum[:, 1:] - cum[:, :-1]
        cum[:, 1:] += np.cumsum(
            (last - (cum[:, 1:] - added)) + (sums[:, 1:] - added), axis=1)
        ends = cum[:, chunks - 1::chunks]
        _rotation_factors(ends[0], None if real else ends[1], ends[-1],
                          a_out[1:], b_out[1:], np.empty((2, intervals)))
        return a_out, b_out

    # fold the lanes in order into the first column (a, c) of U, two
    # levels deep: running products inside groups of about sqrt(lanes)
    # lanes, vectorized across groups; a scalar fold of the group totals;
    # then each group's start column applied to its running products at once
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
    a_out[1:] = a_run
    b_out[1:] = -np.conj(c_run)
    return a_out, b_out


def _raise_non_finite(profile: FieldProfile, blocks, substep, h) -> None:
    """Raise NumericError at the earliest substep whose drive is not finite
    in blocks, (first position, [node, component, position, lane] drive)
    pairs over the run from the failing tile's block on, substep(p, l)
    naming the substep at position p of lane l; return if there is none
    (then only the rotation angle overflowed; the resolution check fails)."""
    bad = [int(substep(p + b0, l).min()) for b0, drive in blocks
           for p, l in [np.nonzero(~np.isfinite(drive).all(axis=(0, 1)))]
           if p.size]
    if bad:
        raise NumericError(
            f"Hamiltonian of profile {profile.label!r} is not finite in the "
            f"substep from t={min(bad) * h:g}")


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
    and reported on the trajectory. A profile value where the sweep samples
    it, or an entry, that is not finite raises NumericError.
    """
    t_max, substeps, h = _prepare(profile, config, window)
    a, b = _integrate(_in_frame(profile), t_max, config.samples, substeps,
                      config.scheme)
    ts = np.linspace(0.0, t_max, config.samples)
    if profile.phi_omega_dot is not None:  # back from the frame
        phi = np.broadcast_to(profile.phi_omega(ts), ts.shape)
        a = a * np.exp(0.5j * (phi - phi[0]))
        b = b * np.exp(0.5j * (phi + phi[0]))
    check_entries(a, b, ts, f"profile {profile.label!r}")
    traj = Trajectory.from_entries(profile, ts, a, b, scheme=config.scheme,
                                   step=h)
    if not traj.unitarity_drift <= _MAX_DRIFT:
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
    # in the sweep's frame: mapping back turns all three runs alike
    runs = [_integrate(_in_frame(profile), t_max, config.samples, n0 * r,
                       config.scheme) for r in (1, 2, 4)]
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
