"""Two coupled co-propagating modes mapped onto the su(2) core.

The amplitudes obey first-order equations in the propagation length z:

    dA/dz =  k(z) e^{-i delta z} B,
    dB/dz = -k*(z) e^{+i delta z} A,

with coupling k(z) and constant phase mismatch delta. After the tilde
transformation A_t = A e^{i delta z/2}, B_t = B e^{-i delta z/2} this is a
two-level problem with z as time: Omega = -delta/2 and off-diagonal
gamma(z) = i k(z), so |omega| = |k| and phi_omega = arg(k) + pi/2. The form
above conserves |A|^2 + |B|^2 exactly; only this conservative case is
supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .fields import FieldProfile, drive_profile, read_table
from .propagator import PropagatorConfig, Trajectory, propagate
# unused here; benchmarks/gbench/tracer.py patches modes.suggested_step
from .propagator import suggested_step  # noqa: F401
from .quadrature import on_arrays
from .scenarios import _resolver as resolver, check_keys, check_numbers

__all__ = [
    "ModeState",
    "CouplingSpec",
    "ModeTrajectory",
    "to_su2_profile",
    "detilde",
    "tilde",
    "propagate_modes",
    "coupling_from_config",
    "COUPLING_FAMILIES",
]

@dataclass(frozen=True)
class ModeState:
    """Complex mode amplitudes (units of sqrt power) at one position."""

    amp_a: complex
    amp_b: complex
    z: float = 0.0

    @property
    def power(self) -> float:
        return abs(self.amp_a) ** 2 + abs(self.amp_b) ** 2


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling function and phase mismatch.

    k_ab maps a float array of z to a complex array of its shape; a constant
    (0-d) result is broadcast, and a scalar-only callable (one that raises
    TypeError or ValueError on an array, such as math.cosh) is called once
    per point. k_ba, on the same contract, defaults to the power-conserving
    partner -conj(k_ab) and may be passed explicitly only to assert that
    same relation; anything else is rejected, since v1 supports only the
    conservative case.
    """

    k_ab: Callable
    delta: float
    label: str = "coupling"
    k_ba: Callable | None = None


@dataclass(frozen=True)
class ModeTrajectory:
    """Detilded amplitudes and powers along z (input power normalized to 1)."""

    z: np.ndarray
    amp_a: np.ndarray
    amp_b: np.ndarray
    power_a: np.ndarray
    power_b: np.ndarray
    total_power: np.ndarray
    power_scale: float
    delta: float
    label: str
    base: Trajectory


def _check_conservative(spec: CouplingSpec, z_max: float) -> None:
    if spec.k_ba is None:
        return
    grid = np.linspace(0.0, z_max, 33)
    kab, kba = (on_arrays(k, complex)(grid) for k in (spec.k_ab, spec.k_ba))
    dev = float(np.max(np.abs(kba + np.conj(kab))))
    bound = 1e-12 * max(1.0, float(np.max(np.abs(kab))))
    if dev > bound:
        raise ConfigError(
            f"coupling {spec.label!r} is not power-conserving: "
            f"max |k_ba + conj(k_ab)| = {dev:.3e} on [0, {z_max:g}]; "
            "only k_ba = -conj(k_ab) is supported")


def to_su2_profile(spec: CouplingSpec, *, window: float = 1.0) -> FieldProfile:
    """The two-level profile equivalent to the tilded mode problem.

    window is only used to probe an explicitly supplied k_ba for power
    conservation; the returned profile itself is evaluable anywhere.
    """
    _check_conservative(spec, float(window))
    half = -0.5 * float(spec.delta)
    k = on_arrays(spec.k_ab, complex)
    return drive_profile(
        lambda z: np.full_like(np.asarray(z, dtype=float), half),
        lambda z: 1j * k(z), f"modes:{spec.label}")


def detilde(v, z: float, delta: float) -> ModeState:
    """Undo the tilde transformation at position z.

    v is the tilded amplitude pair (A_t, B_t) or a ModeState holding one.
    Moduli are unchanged: the transformation is a pure opposite phase on
    each mode.
    """
    at, bt = (v.amp_a, v.amp_b) if isinstance(v, ModeState) else v
    amp_a, amp_b = _rotate(at, bt, z, delta)
    return ModeState(amp_a=complex(amp_a), amp_b=complex(amp_b), z=float(z))


def tilde(state: ModeState, delta: float) -> tuple[complex, complex]:
    """The tilded amplitude pair of a physical ModeState."""
    at, bt = _rotate(state.amp_a, state.amp_b, state.z, -delta)
    return complex(at), complex(bt)


def _rotate(amp_a, amp_b, z, delta):
    # detilde's opposite phases, elementwise; -delta gives tilde
    rot = np.exp(-0.5j * delta * z)
    return amp_a * rot, amp_b / rot


def propagate_modes(spec: CouplingSpec, initial, z_max: float,
                    config: PropagatorConfig | None = None) -> ModeTrajectory:
    """Evolve the mode pair from z = 0 to z_max via the su(2) oracle.

    initial is a ModeState at z = 0 (or a bare (A, B) pair); its power is
    normalized to 1 and the raw value recorded as power_scale.
    """
    if not isinstance(initial, ModeState):
        initial = ModeState(amp_a=complex(initial[0]),
                            amp_b=complex(initial[1]), z=0.0)
    if initial.z != 0.0:
        raise ConfigError("initial ModeState must sit at z = 0")
    try:
        p0 = initial.power
    except OverflowError:  # a finite amplitude whose square overflows
        p0 = math.inf
    # a non-finite amplitude component makes the power inf or nan as well
    if not math.isfinite(p0):
        raise ConfigError(f"initial power must be finite, got {p0:g}")
    if p0 <= 0.0:
        raise ConfigError("initial state must carry nonzero power")
    a0 = initial.amp_a / np.sqrt(p0)
    b0 = initial.amp_b / np.sqrt(p0)

    traj = propagate(to_su2_profile(spec, window=z_max),
                     config or PropagatorConfig(), z_max)

    # tilded evolution, then detilde sample-wise
    at = traj.a * a0 + traj.b * b0
    bt = -np.conj(traj.b) * a0 + np.conj(traj.a) * b0
    amp_a, amp_b = _rotate(at, bt, traj.t, spec.delta)
    pa = np.abs(amp_a) ** 2
    pb = np.abs(amp_b) ** 2
    return ModeTrajectory(
        z=traj.t, amp_a=amp_a, amp_b=amp_b, power_a=pa, power_b=pb,
        total_power=pa + pb, power_scale=float(p0), delta=float(spec.delta),
        label=spec.label, base=traj)


# ---------------------------------------------------------------------------
# coupling catalog for config-driven use

_CONSTANT = resolver("constant", {"k0": 1.0, "phase": 0.0},
                     nonnegative=("k0",))
_SECH = resolver("sech", {"k0": 1.0}, positive=("k0",))


def _constant_coupling(params: dict) -> tuple[Callable, str]:
    k0, phase = _CONSTANT(params).values()
    value = complex(k0 * np.exp(1j * phase))
    return (lambda z: np.full(np.shape(z), value)), f"constant(k0={k0:g})"


def _sech_coupling(params: dict) -> tuple[Callable, str]:
    k0 = _SECH(params)["k0"]

    def fn(z):
        return k0 / np.cosh(k0 * z)

    return fn, f"sech(k0={k0:g})"


def _table_coupling(params: dict) -> tuple[Callable, str]:
    check_keys("family 'custom_table'", params, ("path",))
    path = params.get("path")
    if not (path and isinstance(path, str)):
        raise ConfigError("custom_table needs a file name in params.path")
    zs, re, *im = read_table(path, "coupling table")
    im = im[0] if im else np.zeros_like(re)

    def fn(z):
        return np.interp(z, zs, re) + 1j * np.interp(z, zs, im)

    return fn, f"custom_table({path})"


_BUILDERS = {"constant": _constant_coupling, "sech": _sech_coupling,
             "custom_table": _table_coupling}

COUPLING_FAMILIES = tuple(_BUILDERS)


def coupling_from_config(cfg: dict) -> CouplingSpec:
    """Build a CouplingSpec from the JSON-shaped mapping.

    Schema: {"delta": number, "coupling": {"family": name, "params": {...}}}
    with family one of constant, sech, custom_table.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("mode config must be a JSON object")
    check_keys("the mode config", cfg, ("delta", "coupling"))
    if "delta" not in cfg:
        raise ConfigError("missing field: delta")
    check_numbers({"delta": cfg["delta"]})
    delta = float(cfg["delta"])
    coupling = cfg.get("coupling")
    if not isinstance(coupling, dict) or "family" not in coupling:
        raise ConfigError("missing field: coupling.family")
    check_keys("the mode config's coupling", coupling, ("family", "params"))
    family = coupling["family"]
    params = coupling.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field coupling.params must be an object")
    if family not in _BUILDERS:
        raise ConfigError(
            f"unknown coupling family {family!r}; choose from "
            f"{', '.join(COUPLING_FAMILIES)}")
    fn, label = _BUILDERS[family](params)
    return CouplingSpec(k_ab=fn, delta=delta, label=label)
