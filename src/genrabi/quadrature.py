"""Quadrature helpers: a vectorized panel integrator and its running form.

``panel_quad`` integrates a numpy-vectorized integrand over many panels at
once with a composite Gauss-Legendre rule, bisecting only the panels whose
error estimate misses their share of the tolerance. One call over N
ascending sample points yields the running integral at all of them: it
tests one panel per _EDGES_PER_PANEL sample intervals and reaches the
points in between by one 8-point rule each from the accepted mesh.
``running_integral`` packages that for integrals from 0. Every
transverse area, Theta phase integral and elliptic phase of the package goes
through it, so no scalar integrator runs.

``adaptive_quad`` and ``CumulativeIntegral`` are weightless stand-ins
with no body, like ``theta.scipy``: no genrabi code calls them, and their
names stay only because the benchmark tracer patches them. They go once it
no longer does.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError, QuadratureError

__all__ = ["distinct_sorted", "edges_from_zero", "gauss_legendre",
           "gauss_panels", "node_integrals", "on_arrays", "panel_quad",
           "running_integral"]

# A panel is accepted at this relative error whatever the absolute
# tolerance, so a tolerance of 0, or one below the round-off of the
# integral, does not bisect every panel down to _MAX_DEPTH.
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

# The 16-point Gauss-Legendre rule on [0, 1] (correctly rounded; numpy's
# leggauss(16) agrees to 3e-16), written out by symmetry, and its spectral
# integration matrix (Greengard, SIAM J. Numer. Anal. 28, 1991):
# _GL16_INT[j, m] is the integral from 0 to _GL_X[j] of the degree-15
# Lagrange polynomial that is 1 at node m and 0 at the other nodes, so
# values at the 16 nodes times its transpose integrate every polynomial of
# degree <= 15 from 0 to each 8-point node exactly. Only the rows of the
# first four nodes are written out: by symmetry, row 7 - j is the weights
# minus row j, reversed.
_GL16_HALF_X = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_GL16_HALF_W = np.array([
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
    0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
    0.062253523938647894, 0.027152459411754096])
_GL16_X = 0.5 * (np.concatenate((-_GL16_HALF_X[::-1], _GL16_HALF_X)) + 1.0)
_GL16_W = 0.5 * np.concatenate((_GL16_HALF_W[::-1], _GL16_HALF_W))
_GL16_INT_HEAD = np.array([
    [0.014134629937099918, 0.007418625590023964, -0.0027816817644685655,
     0.001905369671058386, -0.001484548566539193, 0.0012093190985531022,
     -0.0009997940983419522, 0.0008265383197218653, -0.0006764976566949934,
     0.0005433074153061423, -0.00042380970112370584, 0.00031660583660881697,
     -0.0002214186341378747, 0.00013886481822491023, -7.057944349031263e-05,
     2.0140929431377063e-05],
    [0.013710840177623074, 0.030611572191992207, 0.04846982220234419,
     0.011055434717787825, -0.0033823994395071836, 0.002027826417795739,
     -0.0014452135433927198, 0.001097959692260609, -0.0008524048850252873,
     0.0006610006372875885, -0.0005033164875973789, 0.00036967665795110033,
     -0.00025546584884508566, 0.0001589080885743366, -8.034221878379232e-05,
     2.2862932721406914e-05],
    [0.013615518974303168, 0.03098624261486689, 0.047860715226489076,
     0.061918082439824315, 0.07399754735228642, 0.010807132305577446,
     -0.0029100433152500654, 0.0015590065470826421, -0.0010143926690197003,
     0.0007093942795039799, -0.0005058705667336295, 0.00035570050286457195,
     -0.00023865557328927995, 0.0001455450643073704, -7.267410281797458e-05,
     2.0545961840277598e-05],
    [0.013579777562600136, 0.03111575432123852, 0.04759440344547605,
     0.062313312011826216, 0.07471722959207751, 0.08505903403185411,
     0.08720362009938086, 0.007943784791848442, -0.001759718956840294,
     0.0007947958426046727, -0.0004478659102602436, 0.0002731589092426768,
     -0.00016738702913012728, 9.6293379820806e-05, -4.6386226243811066e-05,
     1.2872886679568777e-05]])
_GL16_INT = np.vstack((_GL16_INT_HEAD,
                       (_GL16_W - _GL16_INT_HEAD)[::-1, ::-1]))

# Bisection levels below a starting panel; 2^-40 of a panel is at the
# round-off of its endpoints.
_MAX_DEPTH = 40

# Refined panels one call may hold per given interval, and in all unless
# the given intervals alone need more: beyond this the integrand is too
# rough for the tolerance. At the cap one level of the r integral of the
# Theta route (8 nodes and 16 or 24 cos(Theta) values per panel, see
# theta) holds about 1e6 floats.
_PANELS_PER_EDGE = 200
_MAX_PANELS = 1 << 15

# A bisection midpoint this close to a given edge, relative to it, is it.
_SNAP = 4.0 * np.finfo(float).eps

# The starting panels run over this many given intervals. On sampled grids
# one 8-point rule over a sample interval is accurate far past any
# tolerance, so testing a panel per interval only spends points; the edges
# in between are reached by one 8-point rule inside an accepted panel.
_EDGES_PER_PANEL = 16


def on_arrays(fn: Callable, dtype=float) -> Callable:
    """fn as a function of a float array, with results of the given dtype.

    An array result is used as it is, a 0-d result (a constant such as
    ``lambda t: 1.0``) is broadcast, and a callable that works on scalars
    only (one that raises TypeError or ValueError on an array, such as
    ``lambda t: math.exp(-t)``) is called once per point.
    """
    def call(x):
        x = np.asarray(x, dtype=float)
        try:
            out = np.asarray(fn(x), dtype=dtype)
        except (TypeError, ValueError):  # scalar-only: once per point
            out = np.vectorize(fn, otypes=[dtype])(x)
        return np.broadcast_to(out, x.shape)
    return call


def gauss_legendre(fn: Callable, lo, hi) -> np.ndarray:
    """One 8-point Gauss-Legendre rule on each panel [lo[i], hi[i]].

    fn must accept a 1-d array of nodes; it is called once for all panels.
    The nodes are laid out panel by panel: entries 8i to 8i + 7 of fn's
    argument are the ascending nodes of panel i, so fn may reshape it to
    (panels, 8) rows and recover each panel with gauss_panels.
    """
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(hi, dtype=float) - lo
    nodes = lo[:, None] + width[:, None] * _GL_X
    values = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return (values @ _GL_W) * width


def gauss_panels(rows: np.ndarray):
    """(lo, hi) of the panels whose gauss_legendre nodes are the rows of
    an (n, 8) array, to the round-off of the nodes."""
    width = (rows[:, -1] - rows[:, 0]) / (_GL_X[-1] - _GL_X[0])
    lo = rows[:, 0] - width * _GL_X[0]
    return lo, lo + width


def node_integrals(fn: Callable, lo, hi) -> np.ndarray:
    """The integral of fn from lo[i] to each of the 8 gauss_legendre nodes
    of the panel [lo[i], hi[i]], as an (n, 8) array.

    fn is called once, on the 16-point Gauss-Legendre nodes of every panel;
    the spectral integration matrix _GL16_INT maps those values to the 8
    integrals, exactly for fn a polynomial of degree <= 15 on the panel.
    """
    width = hi - lo
    nodes = lo[:, None] + width[:, None] * _GL16_X
    values = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return (values @ _GL16_INT.T) * width[:, None]


def distinct_sorted(values) -> np.ndarray:
    """np.unique(values) for finite values, without the numpy.ma import
    that np.unique makes on its first call: the same sort and mask."""
    values = np.sort(np.ravel(values))
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def edges_from_zero(points, name: str = "tau"):
    """Panel edges from 0 through the distinct points, and the index of each
    point among them, as running_integral uses them. name is the variable
    the points are values of, as a bad point's error message calls it."""
    points = np.asarray(points, dtype=float)
    if np.any(points < 0):
        raise ConfigError(f"{name} must be >= 0")
    if not np.all(np.isfinite(points)):
        raise NumericError(f"{name} must be finite")
    edges = distinct_sorted(np.append(points, 0.0))
    return edges, np.searchsorted(edges, points)


def panel_quad(fn: Callable, edges, tol: float = 1e-10):
    """Integrate fn over the panels between consecutive ascending edges.

    The starting panels run between every _EDGES_PER_PANEL-th edge and the
    last one. Each panel's 8-point Gauss-Legendre value is compared with
    the sum over its two halves, and the difference is the panel's error
    estimate. A panel is accepted, with the halves' value, when its
    estimate is within its share tol * width / (edges[-1] - edges[0]) of
    the tolerance or at the relative round-off floor, and is bisected
    otherwise. A given edge that is not on the accepted mesh then gets the
    integral up to the mesh edge below it plus one 8-point rule from there,
    over part of the accepted panel that holds it. fn must accept a 1-d
    array and is called once per level and once for those edges.

    Returns (mesh, running): the refined ascending edges, which contain
    every given edge, and the integral of fn from edges[0] to each of them.
    The integral over the panel [edges[i], edges[i+1]] is the difference of
    running at those two edges. When bisection runs out of depth
    (_MAX_DEPTH) or of panels (_PANELS_PER_EDGE per given interval,
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
    # the budget counts the given intervals, not the starting panels
    given = edges.size - 1
    limit = max(2 * given, min(_PANELS_PER_EDGE * given, _MAX_PANELS))
    lo = edges[:-1:_EDGES_PER_PANEL]
    hi = np.append(lo[1:], edges[-1])
    whole = gauss_legendre(fn, lo, hi)
    starts, parts = [], []
    accepted, spent = 0, 0.0
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        # a midpoint within round-off of a given edge inside its panel
        # becomes that edge, so the mesh holds no near-duplicate of it
        i = np.searchsorted(edges, mid)
        for e in edges[np.minimum(i, edges.size - 1)], edges[i - 1]:
            mid = np.where((np.abs(e - mid) <= _SNAP * np.abs(e)) & (lo < e)
                           & (e < hi), e, mid)
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
    below = np.searchsorted(mesh, edges, side="right") - 1
    off = mesh[below] != edges
    if np.any(off):
        below, reach = below[off], edges[off]
        value = running[below] + gauss_legendre(fn, mesh[below], reach)
        mesh = np.insert(mesh, below + 1, reach)
        running = np.insert(running, below + 1, value)
    return mesh, running


def running_integral(fn: Callable, points, tol: float = 1e-10,
                     name: str = "tau"):
    """Integral of fn from 0 to each point >= 0 (in any order) by one
    panel_quad to tol over all of them. fn is taken through on_arrays, so a
    constant or a scalar-only callable serves too; name is as in
    edges_from_zero."""
    edges, index = edges_from_zero(points, name)
    mesh, running = panel_quad(on_arrays(fn), edges, tol)
    return running[np.searchsorted(mesh, edges)][index]


# tracer stand-ins (see the module docstring): nothing to call
adaptive_quad = None


class CumulativeIntegral:
    __call__ = None
