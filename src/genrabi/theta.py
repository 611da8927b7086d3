"""Free-function ansatz machinery for solvable detunings.

A solvable family is generated by choosing a continuous function Theta(tau)
with Theta(0) = 0 on the rescaled clock tau = integral of |omega|. The
choice induces the detuning (in units of |omega|)

    ratio(tau) = Theta'(tau)/2 + sin(Theta) cot(2 phi_int(tau)),
    phi_int(tau) = integral of cos(Theta) from 0 to tau,

and any profile whose detuning follows |omega(t)| ratio(tau(t)) is solved in
closed representation by the pair of phase integrals (phi_int, r_int), where
r_int integrates sin(Theta)/sin(2 phi_int). Ansaetze are expressed in tau,
not t, which makes them agnostic to the transverse envelope.

Both phase integrals are taken in one vectorized pass over all requested
tau (ThetaEvaluator) by the numpy panel quadrature of the quadrature
module, which tests one panel per 16 tau intervals and reaches the tau in
between by one Gauss-Legendre rule each; no scalar quadrature runs on this
route. The r integrand is a 0/0 ratio at tau = 0; on a panel that lies
below a small split point it is replaced by its Taylor form Theta(s)/(2s),
which is exact to O(s^2) there. The Gauss-Legendre rule from 0 to the
smallest tau keeps phi_int to relative accuracy, so the cotangent of the
induced detuning stays accurate there.
An interior zero of sin(2 phi_int) with nonvanishing sin(Theta) makes the
induced detuning non-integrable and is reported as SingularAnsatzError, not
patched by principal values: for the built-in families 2 phi_int stays
strictly inside (0, pi), so an interior zero marks an invalid user ansatz.
Where the phases close (generalized resonance, the locked ratio) the ansatz
carries the closed form's own (triple, ratio) pair and nothing is integrated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .closed_forms import (EvolutionEntries, beta0_triple, case1_theta,
                           case2_theta, check_grid, detuning_deviation,
                           entry_series, last_entries, resonance_triple)
from .errors import ConfigError, NumericError, SingularAnsatzError
# unused here; benchmarks/gbench/tracer.py patches theta.detuning
from .fields import detuning  # noqa: F401
from .fields import (FieldProfile, read_table, transverse_area_series,
                     window_end)
from .propagator import PropagatorConfig, propagate
# unused here; benchmarks/gbench/tracer.py patches theta.suggested_step
from .propagator import suggested_step  # noqa: F401
# unused here; benchmarks/gbench/tracer.py patches theta.adaptive_quad
from .quadrature import adaptive_quad  # noqa: F401
from .quadrature import (edges_from_zero, gauss_legendre, gauss_panels,
                         node_integrals, panel_quad, running_integral)

__all__ = [
    "ThetaAnsatz",
    "PhaseIntegrals",
    "ThetaEvaluator",
    "AnsatzVerification",
    "induced_detuning",
    "phase_integrals",
    "general_entries",
    "general_entries_series",
    "verify_ansatz",
    "zero_ansatz",
    "case1_ansatz",
    "case2_ansatz",
    "beta0_ansatz",
    "named_ansatz",
    "ansatz_from_table",
    "load_ansatz_table",
    "ANSATZ_NAMES",
]

# A weightless stand-in that imports nothing and that nothing calls. It
# exists only because benchmarks/gbench/tracer.py reads and patches
# theta.scipy.integrate.quad. It goes with quadrature's two stand-ins,
# adaptive_quad and CumulativeIntegral, once the tracer change of ROADMAP
# item 1 (first part) lands.
scipy = SimpleNamespace(integrate=SimpleNamespace(quad=None))

# Below this the r integrand switches to its Taylor form (tau units).
EPS_TAYLOR = 1e-6

# sin(2 phi_int) at or below this inside the window is treated as singular.
_SIN_FLOOR = 1e-14


@dataclass(frozen=True)
class ThetaAnsatz:
    """A generating function Theta(tau), with its closed form when it has one.

    Parameters
    ----------
    theta : callable
        Theta as a function of the rescaled time tau >= 0, in radians,
        vanishing at tau = 0.
    label : str
        Catalog or user-facing name.
    theta_prime : callable, optional
        dTheta/dtau. A 5-point stencil substitutes when absent.
    closed : (triple, ratio), optional
        The closed form's own pair, as closed_forms passes it to
        entry_series: triple maps tau to (Theta, phi_int, r_int) and ratio
        is the constant detuning, in units of |omega|, that it solves. When
        present the evaluator returns this pair instead of integrating.

    Every callable takes a numpy array of tau and returns an array of its
    shape.
    """

    theta: Callable
    label: str
    theta_prime: Callable | None = None
    closed: tuple[Callable, float] | None = None

    def __post_init__(self):
        at_zero = float(np.asarray(self.theta(0.0)))
        if not abs(at_zero) <= 1e-12:
            raise ConfigError(
                f"ansatz {self.label!r} must vanish at tau=0, got {at_zero:g}")


@dataclass(frozen=True)
class PhaseIntegrals:
    """The two accumulated phases of the general entry representation."""

    phi_int: float
    r_int: float


def _numeric_theta_prime(theta: Callable, tau: np.ndarray) -> np.ndarray:
    # 5-point stencil, one-sided where tau < 2h: tau < 0 is outside the
    # ansatz domain
    h = 1e-6 * np.maximum(1.0, np.abs(tau))
    central = tau >= 2.0 * h
    shift = np.where(central, -2.0, 0.0)
    f = [np.asarray(theta(tau + (shift + k) * h), dtype=float)
         for k in range(5)]
    return np.where(central, f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4],
                    -25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2]
                    + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)


class ThetaEvaluator:
    """Vectorized tau-domain evaluation of one ansatz.

    triple and ratios integrate the phase pair in one pass over all the
    requested tau, or read the ansatz's closed pair when it has one.
    panel_quad integrates cos(Theta) over the sorted tau; the running sum
    is phi_int on its mesh, which holds every tau. r_int is a second
    panel_quad over that mesh. On a panel that lies at or below EPS_TAYLOR
    its integrand is the Taylor form Theta(s)/(2s), elsewhere
    sin(Theta)/sin(2 phi_int). An r panel may span several mesh panels, and
    phi_int at its 8 Gauss nodes is phi_int at the panel start (the value
    at the mesh edge at or below it, plus one 8-point rule when the panel
    starts past that edge) plus quadrature.node_integrals of cos(Theta)
    over the whole r panel: 16 values and a fixed integration matrix, exact
    to degree 15 on the panel. Nothing is cached between calls; the scalar
    methods are one-point calls of the same path.
    """

    def __init__(self, ansatz: ThetaAnsatz, *, quad_tol: float = 1e-10):
        if not quad_tol > 0:
            raise ConfigError("quad_tol must be > 0")
        self.ansatz = ansatz
        self.quad_tol = quad_tol

    # -- pieces ------------------------------------------------------------

    def theta_prime(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if self.ansatz.theta_prime is not None:
            return np.asarray(self.ansatz.theta_prime(tau), dtype=float)
        return _numeric_theta_prime(self.ansatz.theta, tau)

    def _cos_theta(self, s):
        return np.cos(self.ansatz.theta(s))

    def _phi(self, edges: np.ndarray):
        """phi_int at the edges from edges_from_zero, plus the mesh it was
        integrated on and phi_int at every mesh edge."""
        mesh, running = panel_quad(self._cos_theta, edges, self.quad_tol)
        return running[np.searchsorted(mesh, edges)], mesh, running

    def _phases(self, edges: np.ndarray):
        """(phi_int, r_int) at the edges from edges_from_zero."""
        phi, mesh, running = self._phi(edges)

        def integrand(s):
            # gauss_legendre hands over the nodes panel by panel; a panel
            # whose last node lies past EPS_TAYLOR has its first node above
            # EPS_TAYLOR / 50, where the ratio holds
            rows = s.reshape(-1, 8)
            out = np.empty_like(rows)
            head = rows[:, -1] <= EPS_TAYLOR
            if np.any(head):
                h = rows[head].ravel()
                out[head] = (self.ansatz.theta(h) / (2.0 * h)).reshape(-1, 8)
            tail = ~head
            if np.any(tail):
                out[tail] = self._r_tail(rows[tail], mesh, running)
            return out.ravel()

        r_mesh, r_running = panel_quad(integrand, mesh, self.quad_tol)
        return phi, r_running[np.searchsorted(r_mesh, edges)]

    def _r_tail(self, rows: np.ndarray, mesh: np.ndarray,
                running: np.ndarray) -> np.ndarray:
        """The r integrand at rows of gauss_legendre nodes above EPS_TAYLOR,
        with phi_int at the nodes of each r panel from phi_int at its start
        and one node_integrals call."""
        lo, hi = gauss_panels(rows)
        # an r panel starts on a phi mesh edge (to the round-off of
        # gauss_panels) or, after bisection, inside a mesh panel, one
        # 8-point rule beyond its edge; it may end several mesh panels
        # later, since node_integrals runs over the whole r panel
        slack = 8.0 * np.finfo(float).eps * hi
        k = np.searchsorted(mesh, lo + slack, side="right") - 1
        start = running[k]
        inside = lo - mesh[k] > slack
        if np.any(inside):
            start[inside] += gauss_legendre(self._cos_theta, mesh[k][inside],
                                            lo[inside])
        phi = start[:, None] + node_integrals(self._cos_theta, lo, hi)
        s = rows.ravel()
        th = np.asarray(self.ansatz.theta(s), dtype=float)
        denom = np.sin(2.0 * phi.ravel())
        bad = np.abs(denom) <= _SIN_FLOOR
        if np.any(bad):
            i = int(np.argmax(bad))
            raise SingularAnsatzError(
                f"sin(2 phi_int) vanishes at tau={s[i]:g} while "
                f"sin(Theta)={math.sin(th[i]):g}; the ansatz "
                f"{self.ansatz.label!r} does not induce an integrable "
                "detuning there")
        return (np.sin(th) / denom).reshape(rows.shape)

    # -- array path ----------------------------------------------------------

    def triple(self, taus) -> tuple:
        """(Theta, phi_int, r_int) arrays over an array of tau >= 0."""
        edges, index = edges_from_zero(taus)
        if self.ansatz.closed is not None:
            parts = self.ansatz.closed[0](edges)
        else:
            parts = (self.ansatz.theta(edges), *self._phases(edges))
        return tuple(np.asarray(p, dtype=float)[index] for p in parts)

    def ratios(self, taus) -> np.ndarray:
        """Induced detuning in units of |omega| over an array of tau >= 0."""
        edges, index = edges_from_zero(taus)
        if self.ansatz.closed is not None:
            return np.full(index.shape, float(self.ansatz.closed[1]))
        half_slope = 0.5 * self.theta_prime(edges)
        phi = self._phi(edges)[0]
        # edges[0] = 0, where sin(Theta) cot(2 phi_int) -> Theta'(0)/2
        s2 = np.sin(2.0 * phi[1:])
        bad = s2 <= _SIN_FLOOR
        if np.any(bad):
            i = int(np.argmax(bad))
            raise SingularAnsatzError(
                f"sin(2 phi_int) = {s2[i]:g} at tau={edges[1 + i]:g}; the "
                f"induced detuning of ansatz {self.ansatz.label!r} is "
                "singular there")
        th = np.asarray(self.ansatz.theta(edges[1:]), dtype=float)
        out = 2.0 * half_slope
        out[1:] = half_slope[1:] + np.sin(th) * np.cos(2.0 * phi[1:]) / s2
        return out[index]

    # -- scalar wrappers of the array path -----------------------------------
    # (benchmarks/gbench/tracer.py counts calls of these three on the class)

    def phi_int(self, tau: float) -> float:
        return float(self.triple(float(tau))[1])

    def r_int(self, tau: float) -> float:
        return float(self.triple(float(tau))[2])

    def detuning_ratio(self, tau: float) -> float:
        """Induced detuning in units of |omega| at this tau."""
        return float(self.ratios(float(tau)))


# ---------------------------------------------------------------------------
# module-level operations (transient evaluator per call)

def induced_detuning(ansatz: ThetaAnsatz, profile_omega_mag: Callable,
                     t: float, *, quad_tol: float = 1e-10) -> float:
    """The detuning the ansatz demands at time t, given |omega|.

    Returns |omega(t)| times the dimensionless ratio at tau(t). A profile is
    exactly solvable by this ansatz iff its own detuning matches this value
    at all times in the window. profile_omega_mag is called on arrays, as a
    FieldProfile's is, for the panel quadrature of tau(t); a constant or a
    scalar-only callable serves too (see quadrature.on_arrays).
    """
    ev = ThetaEvaluator(ansatz, quad_tol=quad_tol)
    tau = running_integral(profile_omega_mag, float(t), name="t")
    return float(profile_omega_mag(float(t))) * ev.detuning_ratio(tau)


def phase_integrals(ansatz: ThetaAnsatz, omega_mag: Callable, t: float,
                    quad_tol: float = 1e-10) -> PhaseIntegrals:
    """Both accumulated phases at time t. omega_mag is taken as in
    induced_detuning."""
    tau = running_integral(omega_mag, float(t), name="t")
    _, phi, r = ThetaEvaluator(ansatz, quad_tol=quad_tol).triple(tau)
    return PhaseIntegrals(phi_int=float(phi), r_int=float(r))


def general_entries(ansatz: ThetaAnsatz, profile: FieldProfile, t: float, *,
                    check: bool = True,
                    quad_tol: float = 1e-10) -> EvolutionEntries:
    """Entries of the general solvable representation at time t.

    By default the profile's detuning is checked against the induced one on
    a grid over [0, t] (tolerance 1e-8); a mismatch raises
    InconsistentProfileError, because evaluating the representation on a
    non-matching profile produces plausible-looking wrong answers.
    """
    return last_entries(general_entries_series(
        ansatz, profile, check_grid(t), check=check, quad_tol=quad_tol), t)


def general_entries_series(ansatz: ThetaAnsatz, profile: FieldProfile, ts, *,
                           check: bool = True, quad_tol: float = 1e-10):
    """Vectorized general entries over an ascending time grid."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts[0] < 0 or np.any(np.diff(ts) <= 0)):
        raise ConfigError("time grid must be ascending and start at t >= 0")
    ev = ThetaEvaluator(ansatz, quad_tol=quad_tol)
    return entry_series(
        profile, ts, ev.triple, ev.ratios, check=check, tol=1e-8,
        what=f"the detuning induced by ansatz {ansatz.label!r}")


@dataclass(frozen=True)
class AnsatzVerification:
    """Outcome of checking one ansatz against one profile.

    residual_max is the sup over the window of |profile detuning - induced
    detuning|; entries_deviation_max compares the closed representation with
    the numerical oracle. Failures are reported here, never raised.
    """

    ansatz_label: str
    profile_label: str
    t_max: float
    samples: int
    residual_max: float
    residual_tol: float
    entries_deviation_max: float
    entries_tol: float
    residual_ok: bool
    entries_ok: bool
    passed: bool
    note: str = ""


def verify_ansatz(ansatz: ThetaAnsatz, profile: FieldProfile, window,
                  tol: float = 1e-8, *, entries_tol: float = 1e-6,
                  samples: int = 257,
                  config: PropagatorConfig | None = None,
                  quad_tol: float | None = None) -> AnsatzVerification:
    """Report how well the ansatz solves the profile over the window.

    Two independent figures: the detuning residual (does the profile's
    detuning equal the induced one?) and the deviation of the closed
    representation from the numerical oracle. Numeric failures inside either
    figure are captured in the note rather than raised. quad_tol defaults
    to two decades below the stricter tolerance, floored at 1e-12: loose
    tolerances then admit the kinks of a table ansatz's interpolant. tol
    and entries_tol must be finite and > 0.
    """
    for name, value in (("tol", tol), ("entries_tol", entries_tol)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
    if quad_tol is None:
        quad_tol = max(1e-12, 1e-2 * min(tol, entries_tol))
    t_max = window_end(window, "verification window")
    grid = np.linspace(0.0, t_max, samples)
    ev = ThetaEvaluator(ansatz, quad_tol=quad_tol)
    notes = []

    residual = float("inf")
    try:
        taus = transverse_area_series(profile, grid)
        residual = detuning_deviation(profile, grid, ev.ratios(taus))
    except NumericError as exc:
        notes.append(f"residual evaluation failed: {exc}")

    deviation = float("inf")
    try:
        a_closed, b_closed = general_entries_series(
            ansatz, profile, grid, check=False, quad_tol=quad_tol)
        config = replace(config or PropagatorConfig(
            scheme="commutator_free_4th"), samples=samples)
        traj = propagate(profile, config, t_max)
        deviation = float(max(np.max(np.abs(a_closed - traj.a)),
                              np.max(np.abs(b_closed - traj.b))))
    except NumericError as exc:
        notes.append(f"entries comparison failed: {exc}")

    residual_ok = residual <= tol
    entries_ok = deviation <= entries_tol
    return AnsatzVerification(
        ansatz_label=ansatz.label, profile_label=profile.label,
        t_max=t_max, samples=samples,
        residual_max=residual, residual_tol=tol,
        entries_deviation_max=deviation, entries_tol=entries_tol,
        residual_ok=residual_ok, entries_ok=entries_ok,
        passed=residual_ok and entries_ok, note="; ".join(notes))


# ---------------------------------------------------------------------------
# ansatz catalog

def _closed_ansatz(triple, ratio: float, label: str) -> ThetaAnsatz:
    # the closed form's own (triple, ratio) pair; Theta is its first member
    return ThetaAnsatz(theta=lambda x: triple(x)[0], label=label,
                       closed=(triple, ratio))


def zero_ansatz() -> ThetaAnsatz:
    """Theta identically 0: the generalized-resonance member."""
    return _closed_ansatz(resonance_triple, 0.0, "zero")


def case1_ansatz() -> ThetaAnsatz:
    """The half-flip family: Theta = 2 atan(2 tau / sqrt(2 + 4 tau^2)).

    Theta saturates at pi as tau grows, the flip probability at 1/2; the
    induced detuning decays like 1/tau. The phase integrals are left to the
    generic quadrature on purpose: the closed elliptic form lives in the
    closed-forms module and the two routes cross-check each other.
    """
    return ThetaAnsatz(
        theta=case1_theta, label="case1",
        theta_prime=lambda v: 4.0 / ((1.0 + 4.0 * v ** 2)
                                     * np.sqrt(2.0 + 4.0 * v ** 2)))


def case2_ansatz() -> ThetaAnsatz:
    """The full-inversion family: Theta = 2 atan(tau / sqrt(2 + tau^2))."""
    return ThetaAnsatz(
        theta=case2_theta, label="case2",
        theta_prime=lambda v: 2.0 / ((1.0 + v ** 2) * np.sqrt(2.0 + v ** 2)))


def beta0_ansatz(beta0: float) -> ThetaAnsatz:
    """The constant-ratio family: detuning locked to beta0 |omega|.

    Theta is the continuous branch of atan((beta0/E) tan(E tau)) with
    E = sqrt(1 + beta0^2). The phases close (the closed-form beta0_triple),
    so the ansatz carries that triple with the ratio beta0 and induces
    exactly beta0. Any real beta0 is accepted; beta0 = 0 is the resonance
    triple.
    """
    beta0 = float(beta0) + 0.0  # maps -0.0 to 0.0, labelled beta0=0
    return _closed_ansatz(beta0_triple(beta0), beta0, f"beta0={beta0:g}")


_NAMED = {"zero": zero_ansatz, "case1": case1_ansatz, "case2": case2_ansatz}

ANSATZ_NAMES = tuple(_NAMED)


def named_ansatz(name: str) -> ThetaAnsatz:
    """Look up a catalog ansatz by name ('zero', 'case1', 'case2')."""
    if name not in _NAMED:
        raise ConfigError(
            f"unknown ansatz {name!r}; choose from {', '.join(_NAMED)} "
            "or supply a sampled table")
    return _NAMED[name]()


def ansatz_from_table(taus, thetas, label: str = "table") -> ThetaAnsatz:
    """Build an ansatz from sampled (tau, Theta) pairs.

    Linear interpolation between samples; evaluation beyond the last node
    holds the final value. tau must be strictly ascending from 0 and the
    first Theta must be 0.
    """
    taus = np.asarray(taus, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if taus.ndim != 1 or taus.shape != thetas.shape or taus.size < 2:
        raise ConfigError("need matching 1-d tau/theta arrays, length >= 2")
    if not (np.all(np.isfinite(taus)) and np.all(np.isfinite(thetas))):
        raise ConfigError("tau/theta samples must be finite")
    if taus[0] != 0.0 or np.any(np.diff(taus) <= 0):
        raise ConfigError("tau samples must ascend strictly from 0")
    if thetas[0] != 0.0:
        raise ConfigError("Theta must be 0 at tau = 0")

    return ThetaAnsatz(theta=lambda v: np.interp(v, taus, thetas), label=label)


def load_ansatz_table(path) -> ThetaAnsatz:
    """tau, theta from the first two columns of a fields.read_table file."""
    taus, thetas = read_table(path, "ansatz table")[:2]
    return ansatz_from_table(taus, thetas,
                             label=os.path.splitext(os.path.basename(str(path)))[0])
