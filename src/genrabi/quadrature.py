"""Quadrature helpers: a vectorized panel integrator and its running form.

``panel_quad`` integrates a numpy-vectorized integrand over many panels at
once with a composite Gauss-Legendre rule, bisecting only the panels whose
error estimate misses their share of the tolerance. One call over the
panels between N ascending sample points yields the running integral at all
of them; ``running_integral`` packages that for integrals from 0. Every
transverse area, Theta phase integral and elliptic phase of the package goes
through it, so no scalar integrator runs.

``adaptive_quad`` (QUADPACK) and ``CumulativeIntegral`` are tracer pins:
no genrabi code calls them, and they stay only because the benchmark tracer
patches them by name. They go with the scipy import once it no longer does.
"""

from __future__ import annotations

import bisect
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import ConfigError, NumericError, QuadratureError

__all__ = ["adaptive_quad", "CumulativeIntegral", "edges_from_zero",
           "gauss_legendre", "panel_quad", "running_integral"]

# QUADPACK cannot do much better than ~1e-13 relative; keep a floor so a
# caller-supplied absolute tolerance of 0 does not make quad error out. The
# panel integrator accepts a panel at the same relative floor.
_MIN_EPSREL = 1e-12

# 8-point Gauss-Legendre nodes and weights on [-1, 1] (the values of
# numpy.polynomial.legendre.leggauss(8), written out so that importing the
# package runs no eigenvalue solver), mapped to [0, 1].
_GL_X = 0.5 * (np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362]) + 1.0)
_GL_W = 0.5 * np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706])

# Bisection levels below a starting panel; 2^-40 of a panel is at the
# round-off of its endpoints.
_MAX_DEPTH = 40

# Refined panels one call may hold per starting panel (adaptive_quad allows
# QUADPACK 200 subintervals too), and in all unless the starting panels
# alone need more: beyond this the integrand is too rough for the
# tolerance. At the cap one level of the r integral of the Theta route
# (8 nested nodes per node) holds about 4e6 floats.
_PANELS_PER_EDGE = 200
_MAX_PANELS = 1 << 15


def adaptive_quad(fn: Callable[[float], float], lo: float, hi: float,
                  tol: float = 1e-10) -> float:
    """Integrate fn over [lo, hi] to absolute tolerance tol.

    Raises QuadratureError if the adaptive scheme reports non-convergence,
    carrying the achieved estimate and error bound in the message.
    """
    if lo == hi:
        return 0.0
    value, abserr, info, *tail = quad(
        fn, lo, hi, epsabs=tol, epsrel=_MIN_EPSREL, limit=200, full_output=1)
    if tail:
        message = tail[0]
        raise QuadratureError(
            f"quadrature on [{lo:g}, {hi:g}] did not converge: {message} "
            f"(estimate {value:.6e}, error bound {abserr:.3e})")
    return value


def gauss_legendre(fn: Callable, lo, hi) -> np.ndarray:
    """One 8-point Gauss-Legendre rule on each panel [lo[i], hi[i]].

    fn must accept a 1-d array of nodes; it is called once for all panels.
    """
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(hi, dtype=float) - lo
    nodes = lo[:, None] + width[:, None] * _GL_X
    values = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return (values @ _GL_W) * width


def edges_from_zero(points):
    """Panel edges from 0 through the distinct points, and the index of each
    point among them, as running_integral uses them."""
    points = np.asarray(points, dtype=float)
    if np.any(points < 0):
        raise ConfigError("tau must be >= 0")
    if not np.all(np.isfinite(points)):
        raise NumericError("tau must be finite")
    edges = np.unique(np.append(points, 0.0))
    return edges, np.searchsorted(edges, points)


def panel_quad(fn: Callable, edges, tol: float = 1e-10):
    """Integrate fn over the panels between consecutive ascending edges.

    Each panel's 8-point Gauss-Legendre value is compared with the sum over
    its two halves, and the difference is the panel's error estimate. A
    panel is accepted, with the halves' value, when its estimate is within
    its share tol * width / (edges[-1] - edges[0]) of the tolerance or at
    the relative round-off floor, and is bisected otherwise. fn must accept
    a 1-d array and is called once per level.

    Returns (mesh, running): the refined ascending edges, which contain
    every given edge, and the integral of fn from edges[0] to each of them.
    The integral over the panel [edges[i], edges[i+1]] is the difference of
    running at those two edges. When bisection runs out of depth
    (_MAX_DEPTH) or of panels (_PANELS_PER_EDGE per starting panel,
    _MAX_PANELS in all), which round-off noise or a step in fn can cause,
    the open panels are accepted if all the error estimates together stay
    within tol; otherwise QuadratureError.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size == 0:
        raise ConfigError("panel edges must be a non-empty 1-d array")
    if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
        raise ConfigError("panel edges must be finite and strictly ascending")
    if edges.size == 1:
        return edges, np.zeros(1)
    share = tol / (edges[-1] - edges[0])
    lo, hi = edges[:-1], edges[1:]
    whole = gauss_legendre(fn, lo, hi)
    starts, parts = [], []
    accepted, spent = 0, 0.0
    limit = max(2 * lo.size, min(_PANELS_PER_EDGE * lo.size, _MAX_PANELS))
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        halves = gauss_legendre(fn, np.concatenate((lo, mid)),
                                np.concatenate((mid, hi)))
        left, right = halves[:lo.size], halves[lo.size:]
        value = left + right
        error = np.abs(whole - value)
        done = error <= np.maximum(share * (hi - lo),
                                   _MIN_EPSREL * np.abs(value))
        more = ~done
        spent += np.sum(error[done])
        accepted += 2 * int(np.sum(done))
        # bisected, each open panel yields four parts at the next level
        if np.any(more) and (depth == _MAX_DEPTH
                             or accepted + 4 * np.sum(more) > limit):
            # round-off noise, or a step finer than bisection resolves:
            # settle if all the estimates together still meet tol
            total = spent + np.sum(error[more])
            if not total <= tol:
                worst = int(np.argmax(np.where(more, error, -1.0)))
                raise QuadratureError(
                    f"panel quadrature on [{edges[0]:g}, {edges[-1]:g}] did "
                    f"not converge: after {depth} bisections near "
                    f"{mid[worst]:g} (estimate {value[worst]:.6e}) the error "
                    f"bounds add up to {total:.3e} > {tol:.1e}")
            done[:] = True
        starts += [lo[done], mid[done]]
        parts += [left[done], right[done]]
        if np.all(done):
            break
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        whole = np.concatenate((left[~done], right[~done]))
    starts = np.concatenate(starts)
    order = np.argsort(starts, kind="stable")
    mesh = np.append(starts[order], edges[-1])
    running = np.concatenate(([0.0], np.cumsum(np.concatenate(parts)[order])))
    return mesh, running


def running_integral(fn: Callable, points, tol: float = 1e-10):
    """Integral of fn from 0 to each point >= 0 (in any order) by one
    panel_quad to tol over all of them; fn must accept a 1-d array."""
    edges, index = edges_from_zero(points)
    mesh, running = panel_quad(fn, edges, tol)
    return running[np.searchsorted(mesh, edges)][index]


class CumulativeIntegral:
    """Cached x -> integral of fn from 0 to x >= 0 (a tracer pin): ascending
    queries integrate only the increment beyond the last cached node."""

    def __init__(self, fn: Callable[[float], float], tol: float = 1e-10):
        self._fn = fn
        self._tol = tol
        self._nodes = [0.0]
        self._values = [0.0]

    # benchmarks/gbench/tracer.py counts calls of __call__ on the class
    def __call__(self, x: float) -> float:
        if x < 0.0:
            raise ValueError("cumulative integral is defined for x >= 0")
        if x == 0.0:
            return 0.0
        nodes = self._nodes
        if x >= nodes[-1]:
            increment = adaptive_quad(self._fn, nodes[-1], x, self._tol)
            value = self._values[-1] + increment
            if x > nodes[-1]:
                nodes.append(x)
                self._values.append(value)
            return value
        i = bisect.bisect_right(nodes, x) - 1
        if nodes[i] == x:
            return self._values[i]
        return self._values[i] + adaptive_quad(self._fn, nodes[i], x, self._tol)
