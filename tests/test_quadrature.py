import math

import numpy as np
import pytest

from genrabi.errors import ConfigError, NumericError, QuadratureError
from genrabi import quadrature
from genrabi.quadrature import (distinct_sorted, edges_from_zero,
                                gauss_legendre, gauss_panels, node_integrals,
                                panel_quad, running_integral)


def test_running_integral_matches_analytic():
    # math.sin and math.exp refuse arrays: on_arrays calls them per node
    assert running_integral(math.sin, [math.pi])[0] == pytest.approx(
        2.0, abs=1e-12)
    assert running_integral(lambda x: math.exp(-x), [50.0])[0] \
        == pytest.approx(1.0, abs=1e-10)


def test_running_integral_over_zero_width_is_zero():
    assert running_integral(math.sin, [0.0, 0.0]).tolist() == [0.0, 0.0]


def test_running_integral_matches_antiderivative_on_ascending_grid():
    xs = np.linspace(0.0, 7.0, 113)
    vals = running_integral(math.cos, xs)
    assert np.max(np.abs(vals - np.sin(xs))) < 1e-10


def test_running_integral_answers_points_in_any_order():
    xs = np.array([6.0, 2.5, 0.0, 6.0])
    vals = running_integral(math.cos, xs)
    assert np.max(np.abs(vals - np.sin(xs))) < 1e-10
    assert vals[2] == 0.0 and vals[0] == vals[3]


def test_running_integral_rejects_negative_argument():
    with pytest.raises(ConfigError, match="^tau must be >= 0$"):
        running_integral(math.cos, [1.0, -0.1])


def test_adaptive_quad_reports_nonconvergence():
    # adaptive_quad's scalar integrals run through running_integral now: a
    # divergent integrand hits the subdivision limit and the failure carries
    # the achieved estimate instead of silently returning it
    with pytest.raises(QuadratureError) as err:
        running_integral(lambda x: 1.0 / x, [1.0])
    assert "estimate" in str(err.value)


def test_panel_quad_refines_and_keeps_every_edge():
    edges = np.linspace(0.0, 7.0, 113)
    mesh, running = panel_quad(np.cos, edges)
    assert np.array_equal(mesh[np.searchsorted(mesh, edges)], edges)
    assert np.max(np.abs(running - np.sin(mesh))) < 1e-12
    # one wide panel is bisected until each part meets its share
    mesh, running = panel_quad(np.cos, [0.0, 50.0])
    assert mesh.size > 2
    assert running[-1] == pytest.approx(math.sin(50.0), abs=1e-10)
    # a kink costs depth near it, not accuracy
    mesh, running = panel_quad(lambda x: np.abs(x - 0.3), [0.0, 1.0], 1e-12)
    assert running[-1] == pytest.approx(0.5 * (0.3 ** 2 + 0.7 ** 2), abs=1e-12)


def test_panel_quad_reaches_dense_edges_as_a_panel_per_interval_did():
    # the starting panels run over 16 given intervals; every other edge is
    # reached by one 8-point rule and still lands on the mesh, with the
    # running integral that a panel per interval accepted at level 0 gave
    edges = np.sort(np.random.default_rng(0).uniform(0.0, 7.0, 1001))
    edges[[0, -1]] = 0.0, 7.0

    def fn(x):
        return np.exp(np.sin(3.0 * x))

    mesh, running = panel_quad(fn, edges)
    at = np.searchsorted(mesh, edges)
    assert np.array_equal(mesh[at], edges)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    per_interval = np.concatenate(([0.0], np.cumsum(
        gauss_legendre(fn, lo, mid) + gauss_legendre(fn, mid, hi))))
    assert np.max(np.abs(running[at] - per_interval)) <= 1e-13


def test_panel_quad_snaps_midpoints_onto_given_edges():
    # 0.5 * (lo + hi) of a 16-interval starting panel rounds 1.1e-16 away
    # from its 8th edge at 9 of the 63 panels of this grid; such a midpoint
    # is that edge, so no two mesh points lie within round-off
    edges = np.linspace(0.0, 5.0, 1001)
    mesh, running = panel_quad(np.cos, edges)
    assert np.min(np.diff(mesh)) > 1e-12
    assert np.array_equal(mesh[np.searchsorted(mesh, edges)], edges)
    assert np.max(np.abs(running - np.sin(mesh))) < 1e-12


def test_panel_quad_reports_nonconvergence():
    # an endpoint divergence runs out of depth; an interior pole runs out of
    # panels; both carry where the refinement stopped
    with pytest.raises(QuadratureError) as err:
        panel_quad(lambda x: 1.0 / x, [0.0, 1.0])
    assert "estimate" in str(err.value)
    with pytest.raises(QuadratureError):
        panel_quad(lambda x: 1.0 / (x - 0.3), [0.0, 1.0])


def test_panel_quad_rejects_bad_edges():
    for edges in ([], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, math.inf]):
        with pytest.raises(ConfigError):
            panel_quad(np.cos, edges)
    mesh, running = panel_quad(np.cos, [2.0])
    assert mesh.tolist() == [2.0] and running.tolist() == [0.0]


def test_edges_from_zero_maps_points_back():
    points = np.array([2.0, 0.5, 2.0, 0.0])
    edges, index = edges_from_zero(points)
    assert edges.tolist() == [0.0, 0.5, 2.0]
    assert np.array_equal(edges[index], points)
    with pytest.raises(ConfigError, match="^tau must be >= 0$"):
        edges_from_zero([1.0, -0.1])
    with pytest.raises(NumericError, match="^tau must be finite$"):
        edges_from_zero([1.0, math.nan])
    with pytest.raises(ConfigError, match="^t must be >= 0$"):
        edges_from_zero([1.0, -0.1], "t")


@pytest.mark.parametrize("values", [
    [2.0, 0.5, 2.0, 0.0, 0.5],
    [0.0, -0.0, 3.0, -0.0, 0.0],
    [-0.0, 0.0, 1e-300, -0.0],
    [-0.0],
    [],
    np.round(np.random.default_rng(7).normal(size=(40, 3)), 1),
])
def test_distinct_sorted_is_np_unique(values):
    # bit for bit, the sign of a zero included: np.unique keeps the first of
    # equal neighbours after the same sort
    got, want = distinct_sorted(values), np.unique(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_written_out_rules_are_leggauss_and_the_matrix_is_exact():
    x, w = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(quadrature._GL_X - 0.5 * (x + 1.0))) <= 1e-16
    assert np.max(np.abs(quadrature._GL_W - 0.5 * w)) <= 1e-16
    x, w = np.polynomial.legendre.leggauss(16)
    assert np.max(np.abs(quadrature._GL16_X - 0.5 * (x + 1.0))) <= 1e-16
    assert np.max(np.abs(quadrature._GL16_W - 0.5 * w)) <= 3e-16
    # from 0 to each 8-point node, y^p integrates exactly for p <= 15
    for p in range(16):
        got = quadrature._GL16_INT @ quadrature._GL16_X ** p
        assert np.max(np.abs(got - quadrature._GL_X ** (p + 1) / (p + 1))) \
            <= 1e-14


def test_node_integrals_run_from_each_panel_start_to_its_nodes():
    lo, hi = np.array([0.0, 0.3, 2.0]), np.array([0.3, 0.31, 5.0])
    seen = []

    def spy(s):
        seen.append(s.reshape(-1, 8))
        return np.cos(s)

    gauss_legendre(spy, lo, hi)
    got_lo, got_hi = gauss_panels(seen[0])
    assert np.max(np.abs(got_lo - lo)) <= 1e-15
    assert np.max(np.abs(got_hi - hi)) <= 1e-15
    got = node_integrals(np.cos, lo, hi)
    want = np.sin(seen[0]) - np.sin(lo)[:, None]
    assert np.max(np.abs(got - want)) <= 1e-13
