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

ThetaEvaluator.solve gives (Theta, phi_int, r_int, ratio) at all requested
tau, the one solution closed_forms.entry_series takes: one pass of the
numpy panel quadrature (one panel per 16 tau intervals, one Gauss-Legendre
rule for each tau in between) gives phi_int, which the ratio reads and then
r_int, a second pass over the same mesh; no scalar quadrature runs. The r
integrand is a 0/0 ratio at tau = 0; on a panel that lies below a small
split point it is replaced by its Taylor form Theta(s)/(2s), exact to
O(s^2) there. The Gauss-Legendre rule from 0 to the smallest tau keeps
phi_int to relative accuracy, so the cotangent of the ratio stays accurate.
One regularity rule serves the ratio and the r integrand: their term
sin(Theta)/sin(2 phi_int) is 0 where sin(Theta) = 0; elsewhere a
non-integrable sin(2 phi_int) <= _SIN_FLOOR raises SingularAnsatzError and
is not patched by principal values. For the built-in families 2 phi_int
stays strictly inside (0, pi), so such a point marks an invalid user ansatz.
Where the phases close (generalized resonance, the locked ratio) the ansatz
carries the closed form's own solution and nothing is integrated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .closed_forms import (beta0_triple, case1_theta, case2_theta,
                           closed_solution, detuning_deviation, entry_series,
                           resonance_triple, solution_entries)
from .errors import (ConfigError, NumericError, SingularAnsatzError,
                     check_name, check_numbers, check_tolerance)
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
                         node_integrals, panel_quad)

__all__ = [
    "ThetaAnsatz",
    "ThetaEvaluator",
    "AnsatzVerification",
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

# sin(2 phi_int) at or below this where sin(Theta) != 0 is singular.
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
    closed : callable, optional
        The closed form's own solution, as closed_forms.closed_solution
        builds it for entry_series: tau to (Theta, phi_int, r_int, ratio),
        ratio the constant detuning, in units of |omega|, the triple solves.
        When present the evaluator returns it instead of integrating.

    Every callable takes a numpy array of tau and returns an array of its
    shape.
    """

    theta: Callable
    label: str
    theta_prime: Callable | None = None
    closed: Callable | None = None

    def __post_init__(self):
        at_zero = float(np.asarray(self.theta(0.0)))
        if not abs(at_zero) <= 1e-12:
            raise ConfigError(
                f"ansatz {self.label!r} must vanish at tau=0, got {at_zero:g}")


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

    solve gives (Theta, phi_int, r_int, ratio) over all the requested tau,
    or reads the ansatz's closed solution when it has one. panel_quad
    integrates cos(Theta) over the sorted tau; the running sum is phi_int
    on its mesh, which holds every tau. The ratio reads phi_int at the tau,
    and r_int is a second panel_quad over that mesh. On a panel that lies
    at or below EPS_TAYLOR its integrand is the Taylor form Theta(s)/(2s),
    elsewhere sin(Theta)/sin(2 phi_int). An r panel may span several mesh
    panels, and phi_int at its 8 Gauss nodes is phi_int at the panel start
    (the value at the mesh edge at or below it, plus one 8-point rule when
    the panel starts past that edge) plus quadrature.node_integrals of
    cos(Theta) over the whole r panel: 16 values and a fixed integration
    matrix, exact to degree 15 on the panel. Nothing is cached between
    calls; the scalar methods are one-point calls of solve.
    """

    def __init__(self, ansatz: ThetaAnsatz, *, quad_tol: float = 1e-10):
        check_tolerance("quad_tol", quad_tol)
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

    def _over_sin(self, sin_theta, phi, tau, factor=1.0) -> np.ndarray:
        """sin(Theta) factor / sin(2 phi_int) by the regularity rule: 0 where
        sin(Theta) = 0, else SingularAnsatzError where sin(2 phi_int) <=
        _SIN_FLOOR."""
        s2 = np.sin(2.0 * phi)
        live = sin_theta != 0.0
        bad = live & (s2 <= _SIN_FLOOR)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise SingularAnsatzError(
                f"sin(2 phi_int) = {s2[i]:g} at tau={tau[i]:g} while "
                f"sin(Theta) = {sin_theta[i]:g}: ansatz {self.ansatz.label!r} "
                "induces no integrable detuning there")
        num = sin_theta * factor
        return np.divide(num, s2, out=np.zeros_like(num), where=live)

    def _integrate(self, edges: np.ndarray) -> tuple:
        """(Theta, phi_int, r_int, ratio) at the edges from edges_from_zero;
        the ratio and its rule come before the r pass."""
        mesh, running = panel_quad(self._cos_theta, edges, self.quad_tol)
        phi = running[np.searchsorted(mesh, edges)]
        theta = np.asarray(self.ansatz.theta(edges), dtype=float)
        half_slope = 0.5 * self.theta_prime(edges)
        # edges[0] = 0, where sin(Theta) cot(2 phi_int) -> Theta'(0)/2
        ratio = 2.0 * half_slope
        ratio[1:] = half_slope[1:] + self._over_sin(
            np.sin(theta[1:]), phi[1:], edges[1:], np.cos(2.0 * phi[1:]))

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
        return theta, phi, r_running[np.searchsorted(r_mesh, edges)], ratio

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
        sin_theta = np.sin(np.asarray(self.ansatz.theta(s), dtype=float))
        return self._over_sin(sin_theta, phi.ravel(), s).reshape(rows.shape)

    # -- array path ----------------------------------------------------------

    def solve(self, taus) -> tuple:
        """(Theta, phi_int, r_int, ratio) arrays over an array of tau >= 0,
        ratio the induced detuning in units of |omega|."""
        edges, index = edges_from_zero(taus)
        closed = self.ansatz.closed
        parts = closed(edges) if closed is not None else self._integrate(edges)
        return tuple(np.broadcast_to(np.asarray(p, dtype=float),
                                     edges.shape)[index] for p in parts)

    # -- scalar wrappers of the array path -----------------------------------
    # (benchmarks/gbench/tracer.py counts calls of these three on the class)

    def phi_int(self, tau: float) -> float:
        return float(self.solve(float(tau))[1])

    def r_int(self, tau: float) -> float:
        return float(self.solve(float(tau))[2])

    def detuning_ratio(self, tau: float) -> float:
        """Induced detuning in units of |omega| at this tau."""
        return float(self.solve(float(tau))[3])


def general_entries_series(ansatz: ThetaAnsatz, profile: FieldProfile, ts, *,
                           check: bool = True, quad_tol: float = 1e-10):
    """Entries of the general solvable representation over an ascending
    time grid. With check the profile's detuning must match the induced one
    within 1e-8 on the grid, else InconsistentProfileError: on a
    non-matching profile the representation gives plausible wrong entries."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts[0] < 0 or np.any(np.diff(ts) <= 0)):
        raise ConfigError("time grid must be ascending and start at t >= 0")
    ev = ThetaEvaluator(ansatz, quad_tol=quad_tol)
    return entry_series(
        profile, ts, ev.solve, check=check, tol=1e-8,
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
    representation from the numerical oracle, both from one
    ThetaEvaluator.solve. Numeric failures inside either figure are
    captured in the note rather than raised; when the Theta evaluation
    fails, the oracle is skipped and entries_deviation_max is inf. quad_tol
    defaults to two decades below the stricter tolerance, floored at 1e-12:
    loose tolerances then admit the kinks of a table ansatz's interpolant.
    tol and entries_tol must be finite and > 0.
    """
    check_tolerance("tol", tol)
    check_tolerance("entries_tol", entries_tol)
    if quad_tol is None:
        quad_tol = max(1e-12, 1e-2 * min(tol, entries_tol))
    # its check names the valid sample counts, before any work
    config = replace(config or PropagatorConfig(
        scheme="commutator_free_4th"), samples=samples)
    t_max = window_end(window, "verification window")
    grid = np.linspace(0.0, t_max, config.samples)
    ev = ThetaEvaluator(ansatz, quad_tol=quad_tol)
    notes = []

    residual = deviation = float("inf")
    stage = "residual evaluation"
    try:
        solution = ev.solve(transverse_area_series(profile, grid))
        residual = detuning_deviation(profile, grid, solution[3])
        stage = "entries comparison"
        a_closed, b_closed = solution_entries(profile, grid, solution)
        traj = propagate(profile, config, t_max)
        deviation = float(max(np.max(np.abs(a_closed - traj.a)),
                              np.max(np.abs(b_closed - traj.b))))
    except NumericError as exc:
        notes.append(f"{stage} failed: {exc}")

    residual_ok = residual <= tol
    entries_ok = deviation <= entries_tol
    return AnsatzVerification(
        ansatz_label=ansatz.label, profile_label=profile.label,
        t_max=t_max, samples=config.samples,
        residual_max=residual, residual_tol=tol,
        entries_deviation_max=deviation, entries_tol=entries_tol,
        residual_ok=residual_ok, entries_ok=entries_ok,
        passed=residual_ok and entries_ok, note="; ".join(notes))


# ---------------------------------------------------------------------------
# ansatz catalog

def _closed_ansatz(triple, ratio: float, label: str) -> ThetaAnsatz:
    # the closed form's own solution; Theta is the triple's first member
    return ThetaAnsatz(theta=lambda x: triple(x)[0], label=label,
                       closed=closed_solution(triple, ratio))


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
    exactly beta0. Any finite real beta0 is accepted; beta0 = 0 is the
    resonance triple.
    """
    check_numbers({"beta0": beta0})
    beta0 = float(beta0) + 0.0  # maps -0.0 to 0.0, labelled beta0=0
    return _closed_ansatz(beta0_triple(beta0), beta0, f"beta0={beta0:g}")


_NAMED = {"zero": zero_ansatz, "case1": case1_ansatz, "case2": case2_ansatz}

ANSATZ_NAMES = tuple(_NAMED)


def named_ansatz(name: str) -> ThetaAnsatz:
    """Look up a catalog ansatz by name ('zero', 'case1', 'case2')."""
    check_name("ansatz", name, ANSATZ_NAMES)
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
