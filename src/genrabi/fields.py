"""Time-dependent su(2) Hamiltonian parameters and physical-field conversion.

The Hamiltonian is parametrized by the diagonal entry Omega(t) and the
off-diagonal entry omega(t) = |omega(t)| e^{i phi_omega(t)}:

    H(t) = [[ Omega(t),       omega(t) ],
            [ omega*(t),     -Omega(t) ]]

All quantities use hbar = 1; energies are expressed in units of a reference
transverse amplitude and times in the inverse of that reference, so every
number in a profile is dimensionless. The quantity

    detuning(t) = Omega(t) + phi_omega_dot(t) / 2

controls solvability: it vanishes identically for generalized-resonant
drives, and the exactly solvable out-of-resonance families fix its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, check_numbers, check_tolerance
from .quadrature import running_integral

__all__ = [
    "FieldProfile",
    "PhysicalField",
    "detuning",
    "phase_derivative",
    "is_generalized_resonant",
    "to_profile",
    "from_profile",
    "transverse_area",
    "transverse_area_series",
    "window_end",
    "read_table",
    "drive_phase",
    "drive_profile",
]

ArrayFunc = Callable[[np.ndarray], np.ndarray]

# Step of the 5-point phase-derivative stencil, in reference time.
DIFF_STEP = 1e-5


def _as_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class FieldProfile:
    """Evaluable Hamiltonian parameter triple plus metadata.

    Parameters
    ----------
    omega_z : callable
        Diagonal entry Omega(t).
    omega_mag : callable
        Off-diagonal modulus |omega(t)| >= 0.
    phi_omega : callable
        Off-diagonal phase in radians, continuous on the evaluation window.
    label : str
        Human-readable scenario name.
    phi_omega_dot : callable, optional
        Analytic phase derivative. When absent, a 5-point central difference
        with step ``DIFF_STEP`` is used (see ``phase_derivative``).
    tau_of_t : callable, optional
        Analytic accumulated transverse area, integral of |omega| from 0 to t.
        Consumers fall back to panel quadrature of omega_mag when absent;
        the numerical propagator never uses it.
    detuning : callable, optional
        Analytic Omega + phi_omega_dot/2, which the resonance frame reads.

    Every callable takes a numpy array of t and returns an array of its
    shape, and depends on t alone: the propagator probes a profile object's
    scale once per window and reuses it.
    """

    omega_z: ArrayFunc
    omega_mag: ArrayFunc
    phi_omega: ArrayFunc
    label: str = "custom"
    phi_omega_dot: ArrayFunc | None = None
    tau_of_t: ArrayFunc | None = None
    detuning: ArrayFunc | None = None


def phase_derivative(profile: FieldProfile, t):
    """d(phi_omega)/dt at t, analytic when supplied, else 5-point stencil.

    The stencil values are locally unwrapped so a profile whose phase is
    reported modulo 2 pi still differentiates cleanly away from genuine
    discontinuities.
    """
    arr, scalar = _as_array(t)
    if profile.phi_omega_dot is not None:
        out = np.asarray(profile.phi_omega_dot(arr), dtype=float)
        return float(out) if scalar else out
    h = DIFF_STEP
    stencil = np.stack([np.asarray(profile.phi_omega(arr + k * h), dtype=float)
                        for k in (-2.0, -1.0, 0.0, 1.0, 2.0)])
    stencil = np.unwrap(stencil, axis=0)
    out = (stencil[0] - 8.0 * stencil[1] + 8.0 * stencil[3] - stencil[4]) / (12.0 * h)
    return float(out) if scalar else out


def detuning(profile: FieldProfile, t):
    """Omega(t) + phi_omega_dot(t)/2, the residual longitudinal drive, from
    the lab fields (a stated profile.detuning is read by the frame only)."""
    arr, scalar = _as_array(t)
    out = np.asarray(profile.omega_z(arr), dtype=float) + 0.5 * phase_derivative(profile, arr)
    return float(out) if scalar else out


def window_end(window, name: str = "window") -> float:
    """The end of a window given as t_max or as a (0, t_max) pair.

    Windows start at 0 and end at a finite t_max > 0; anything else is a
    ConfigError naming ``name``.
    """
    try:
        lo, hi = 0.0, float(window)
    except TypeError:
        try:
            lo, hi = float(window[0]), float(window[1])
        except (TypeError, ValueError, IndexError):
            raise ConfigError(
                f"{name} must be t_max or a (0, t_max) pair, got {window!r}")
    if lo != 0.0:
        raise ConfigError(f"{name} must start at t = 0, got {lo:g}")
    if not (hi > 0.0 and math.isfinite(hi)):
        raise ConfigError(f"{name} end must be finite and > 0, got {hi:g}")
    return hi


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def read_table(path, what: str) -> np.ndarray:
    """The columns of a file of comma-separated numbers, one per result row.
    '#' starts a comment, and a first row with no number is a header. Any
    file but >= 2 rows of as many (>= 2) finite numbers each, the first
    column strictly ascending, is a ConfigError naming ``what``."""
    try:
        with open(path) as fh:
            lines = [s for s in (x.partition("#")[0].strip() for x in fh) if s]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    if lines and all(_number(c) is None for c in lines[0].split(",")):
        lines = lines[1:]  # header
    if len(lines) >= 2:
        try:
            table = np.loadtxt(lines, delimiter=",", ndmin=2).T.copy()
        except ValueError:  # a ragged row or a cell that is not a number
            table = None
        if table is not None and len(table) >= 2 and np.all(
                np.isfinite(table)) and np.all(np.diff(table[0]) > 0):
            return table
    raise ConfigError(f"{what} {path} needs >= 2 rows of the same number "
                      "(>= 2) of finite numbers, the first column strictly "
                      "ascending")


def is_generalized_resonant(profile: FieldProfile, window,
                            tol: float = 1e-10) -> bool:
    """True iff sup |detuning| <= tol over 512 samples of the window.

    ``window`` is t_max or a (0, t_max) pair (see window_end).
    """
    check_tolerance("tol", tol)
    grid = np.linspace(0.0, window_end(window, "evaluation window"), 512)
    return bool(np.max(np.abs(detuning(profile, grid))) <= tol)


def transverse_area(profile: FieldProfile, t: float) -> float:
    """Accumulated transverse area tau(t) = integral of |omega| from 0 to t.

    Uses the analytic ``tau_of_t`` when the profile carries one, one panel
    quadrature of omega_mag otherwise. tau is the natural clock of every
    solvable family.
    """
    return float(transverse_area_series(profile, np.array([float(t)]))[0])


def transverse_area_series(profile: FieldProfile, ts) -> np.ndarray:
    """tau at every t >= 0 of ts: tau_of_t, else one running_integral of
    omega_mag over all of them."""
    ts = np.asarray(ts, dtype=float)
    if profile.tau_of_t is not None:
        return np.asarray(profile.tau_of_t(ts), dtype=float)
    return running_integral(profile.omega_mag, ts, name="t")


@dataclass(frozen=True)
class PhysicalField:
    """Laboratory-frame magnetic field with its moment scale.

    b_x, b_y, b_z map time to tesla; mu0_g (energy per tesla) converts field
    components to Hamiltonian entries. This is the only layer where
    dimensional field units appear.
    """

    b_x: ArrayFunc
    b_y: ArrayFunc
    b_z: ArrayFunc
    mu0_g: float
    label: str = "physical"


def drive_phase(w):
    """Phase of the complex transverse drive w, continuous along its samples:
    np.angle, held where w vanishes (at the last nonzero sample, the first
    one for leading zeros, 0 for an all-zero w; any value works since
    |omega| = 0 there), then unwrapped. A scalar gets its principal value."""
    w = np.asarray(w, dtype=complex)
    flat = w.ravel()
    phase = np.angle(flat)
    dead = flat == 0
    if dead.all():
        phase = np.zeros_like(phase)
    elif dead.any():
        idx = np.maximum.accumulate(np.where(dead, -1, np.arange(flat.size)))
        phase = phase[np.where(idx < 0, np.argmin(dead), idx)]
    phase = np.unwrap(phase).reshape(w.shape)
    return float(phase) if w.ndim == 0 else phase


def drive_profile(omega_z: ArrayFunc, w: ArrayFunc,
                  label: str) -> FieldProfile:
    """The profile of diagonal entry omega_z and complex transverse drive w
    (a callable of t): |omega| = |w| and phi_omega = drive_phase(w)."""
    return FieldProfile(omega_z=omega_z, omega_mag=lambda t: np.abs(w(t)),
                        phi_omega=lambda t: drive_phase(w(t)), label=label)


def to_profile(field: PhysicalField) -> FieldProfile:
    """Convert a laboratory field to a FieldProfile.

    Omega = (mu0_g/2) B_z and the drive w = (mu0_g/2)(B_x - i B_y) of
    drive_profile, so phi_omega = atan2(-B_y, B_x), unwrapped continuously
    along array input. Scalar phase queries return the principal value.
    """
    check_numbers({"mu0_g": field.mu0_g}, positive=("mu0_g",))
    half = 0.5 * field.mu0_g

    def omega_z(t):
        return half * np.asarray(field.b_z(np.asarray(t, dtype=float)), dtype=float)

    def w(t):
        arr = np.asarray(t, dtype=float)
        bx = np.asarray(field.b_x(arr), dtype=float)
        by = np.asarray(field.b_y(arr), dtype=float)
        # set part by part: complex arithmetic would turn the -0.0 of a
        # vanishing -B_y into +0.0 and a phase of -pi into +pi
        out = np.empty(np.broadcast(bx, by).shape, dtype=complex)
        out.real, out.imag = half * bx, -half * by
        return out

    return drive_profile(omega_z, w, field.label)


def from_profile(profile: FieldProfile, mu0_g: float) -> PhysicalField:
    """Reconstruct the laboratory field that produces ``profile``."""
    check_numbers({"mu0_g": mu0_g}, positive=("mu0_g",))
    scale = 2.0 / mu0_g

    def b_x(t):
        arr = np.asarray(t, dtype=float)
        return scale * np.asarray(profile.omega_mag(arr), dtype=float) \
            * np.cos(np.asarray(profile.phi_omega(arr), dtype=float))

    def b_y(t):
        arr = np.asarray(t, dtype=float)
        return -scale * np.asarray(profile.omega_mag(arr), dtype=float) \
            * np.sin(np.asarray(profile.phi_omega(arr), dtype=float))

    def b_z(t):
        return scale * np.asarray(profile.omega_z(np.asarray(t, dtype=float)), dtype=float)

    return PhysicalField(b_x=b_x, b_y=b_y, b_z=b_z, mu0_g=mu0_g,
                         label=profile.label)
