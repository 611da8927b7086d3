"""Generating-function machinery against closed forms and frozen integrals.

The scalar phase-integral references were frozen from 30-digit
arbitrary-precision quadrature of the defining integrands.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from genrabi import closed_forms, propagator, quadrature, theta
from genrabi.closed_forms import (
    beta0_series,
    case1_detuning_ratio,
    case1_entries,
    case1_series,
    case1_theta,
    case2_detuning_ratio,
    case2_entries,
    case2_series,
    case2_theta,
    elliptic_phase,
    resonance_series,
)
from genrabi.errors import ConfigError, InconsistentProfileError, NumericError, SingularAnsatzError
from genrabi.fields import transverse_area, transverse_area_series
from genrabi.modes import CouplingSpec, to_su2_profile
from genrabi.scenarios import ScenarioParams, closed_form_series, make_scenario
from genrabi.theta import (
    ThetaAnsatz,
    ThetaEvaluator,
    ansatz_from_table,
    beta0_ansatz,
    case1_ansatz,
    case2_ansatz,
    general_entries,
    general_entries_series,
    induced_detuning,
    load_ansatz_table,
    named_ansatz,
    phase_integrals,
    verify_ansatz,
    zero_ansatz,
)

# accumulated cosine integral of the half-flip ansatz at tau = 1.7
PHI1_AT_1_7 = 0.6423724425387892
# accumulated cosine integral of the full-inversion ansatz at tau = 0.9
PHI2_AT_0_9 = 0.7328151017865066
# second phase integral of the half-flip ansatz at tau = sqrt(3)/2
R1_AT_SQRT3_2 = 1.0937414513053796
# second phase integral of the full-inversion ansatz at tau = 2.5
R2_AT_2_5 = 2.4625153547689225


def test_ansatz_must_vanish_at_origin():
    with pytest.raises(ConfigError):
        ThetaAnsatz(theta=lambda x: np.asarray(x, dtype=float) + 0.1,
                    label="offset")


def test_evaluator_rejects_bad_tolerances():
    with pytest.raises(ConfigError):
        ThetaEvaluator(case1_ansatz(), quad_tol=0.0)


def test_induced_ratio_matches_closed_forms():
    taus = np.linspace(0.0, 6.0, 31)
    ev1 = ThetaEvaluator(case1_ansatz())
    ev2 = ThetaEvaluator(case2_ansatz())
    got1 = np.array([ev1.detuning_ratio(x) for x in taus])
    got2 = np.array([ev2.detuning_ratio(x) for x in taus])
    assert np.max(np.abs(got1 - case1_detuning_ratio(taus))) < 1e-9
    assert np.max(np.abs(got2 - case2_detuning_ratio(taus))) < 1e-9
    # characteristic values at the origin and at tau = 1
    assert ev1.detuning_ratio(0.0) == pytest.approx(2.0 * math.sqrt(2.0))
    assert ev2.detuning_ratio(1.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12)


def test_induced_detuning_scales_with_envelope():
    prof = make_scenario(ScenarioParams("case2", {"omega_mag0": 2.0}))
    got = induced_detuning(case2_ansatz(), prof.omega_mag, 0.5)
    assert got == pytest.approx(2.0 * case2_detuning_ratio(1.0), abs=1e-9)


def test_locked_ratio_ansatz_is_constant_across_branches():
    # the closed pair has no cotangent, so crossing the points where the
    # stretched clock passes multiples of pi must be smooth
    for beta in (1.0, -0.7):
        ev = ThetaEvaluator(beta0_ansatz(beta))
        taus = np.linspace(0.0, 5.0, 101)
        got = np.array([ev.detuning_ratio(x) for x in taus])
        assert np.max(np.abs(got - beta)) < 1e-12, beta


def test_phase_integrals_frozen_values():
    ev1 = ThetaEvaluator(case1_ansatz())
    assert ev1.phi_int(1.7) == pytest.approx(PHI1_AT_1_7, abs=1e-10)
    assert ev1.phi_int(1.7) == pytest.approx(
        0.5 * math.atan(2.0 * 1.7), abs=1e-10)
    assert ev1.r_int(math.sqrt(3.0) / 2.0) == pytest.approx(
        R1_AT_SQRT3_2, abs=1e-9)
    ev2 = ThetaEvaluator(case2_ansatz())
    assert ev2.phi_int(0.9) == pytest.approx(PHI2_AT_0_9, abs=1e-10)
    assert ev2.phi_int(0.9) == pytest.approx(math.atan(0.9), abs=1e-10)
    assert ev2.r_int(2.5) == pytest.approx(R2_AT_2_5, abs=1e-9)


def test_generic_quadrature_agrees_with_elliptic_closed_form():
    ev = ThetaEvaluator(case1_ansatz())
    for tau in (0.5, 1.0, 2.0, 5.0):
        assert ev.r_int(tau) == pytest.approx(-elliptic_phase(tau), abs=1e-9)


def test_zero_ansatz_phase_integrals():
    prof = make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 1.0, "phi_dot0": 0.0}))
    out = phase_integrals(zero_ansatz(), prof.omega_mag, 2.3)
    assert out.phi_int == pytest.approx(2.3, abs=1e-10)
    assert out.r_int == 0.0


def test_taylor_split_point_is_immaterial(monkeypatch):
    ev = ThetaEvaluator(case2_ansatz())
    at_default = ev.r_int(2.0), ev.r_int(3e-6)
    monkeypatch.setattr(theta, "EPS_TAYLOR", 1e-5)
    assert abs(at_default[0] - ev.r_int(2.0)) < 1e-9
    assert abs(at_default[1] - ev.r_int(3e-6)) < 1e-12


def test_general_entries_identity_at_t_zero():
    prof1 = make_scenario("case1")
    prof2 = make_scenario(ScenarioParams("case2", split_fraction=0.5))
    for ansatz, prof in ((case1_ansatz(), prof1), (case2_ansatz(), prof2)):
        e = general_entries(ansatz, prof, 0.0)
        assert e.a == 1.0 + 0.0j
        assert e.b == 0.0j


def test_general_route_matches_case_closed_forms():
    ts = np.linspace(0.0, 4.0, 9)
    prof1 = make_scenario("case1")
    a1, b1 = general_entries_series(case1_ansatz(), prof1, ts)
    ac1, bc1 = case1_series(prof1, ts)
    assert np.max(np.abs(a1 - ac1)) < 5e-9
    assert np.max(np.abs(b1 - bc1)) < 5e-9
    prof2 = make_scenario(ScenarioParams("case2", split_fraction=1.0))
    a2, b2 = general_entries_series(case2_ansatz(), prof2, ts)
    ac2, bc2 = case2_series(prof2, ts)
    assert np.max(np.abs(a2 - ac2)) < 5e-9
    assert np.max(np.abs(b2 - bc2)) < 5e-9


def test_general_route_matches_locked_ratio_closed_form():
    beta = 1.5
    prof = make_scenario(ScenarioParams("constant_beta0", {"beta0": beta}))
    ts = np.linspace(0.0, 6.0, 13)
    a, b = general_entries_series(beta0_ansatz(beta), prof, ts)
    ac, bc = beta0_series(prof, beta, ts)
    assert np.max(np.abs(a - ac)) < 1e-12
    assert np.max(np.abs(b - bc)) < 1e-12


@pytest.mark.parametrize("beta0", [1e-8, 1e-6])
def test_locked_ratio_routes_match_analytic_entries_at_small_beta0(beta0):
    # both routes read the shared (Theta, phi_int, r_int) triple; its phi_int
    # must stay exact where sin(E tau)/E approaches 1
    params = ScenarioParams("constant_beta0", {"beta0": beta0})
    prof = make_scenario(params)
    ts = np.linspace(0.0, 4.0 * math.pi, 1001)
    stretch = math.sqrt(1.0 + beta0 ** 2)
    big = stretch * transverse_area_series(prof, ts)
    exact = np.exp(0.5j * (prof.phi_omega(ts) - prof.phi_omega(0.0))) \
        * (np.cos(big) - 1j * (beta0 / stretch) * np.sin(big))
    a_closed, _ = closed_form_series(params, prof, ts)
    a_theta, _ = general_entries_series(beta0_ansatz(beta0), prof, ts)
    assert np.max(np.abs(a_closed - exact)) <= 1e-14
    assert np.max(np.abs(a_theta - exact)) <= 1e-14


def test_zero_ansatz_reproduces_resonance():
    prof = make_scenario("sech_resonant")
    ts = np.linspace(0.0, 6.0, 25)
    a, b = general_entries_series(zero_ansatz(), prof, ts)
    ar, br = resonance_series(prof, ts)
    assert np.max(np.abs(a - ar)) < 1e-12
    assert np.max(np.abs(b - br)) < 1e-12


def test_mismatched_profile_is_rejected_unless_unchecked():
    prof = make_scenario("constant_beta0")
    with pytest.raises(InconsistentProfileError):
        general_entries(zero_ansatz(), prof, 2.0)
    with pytest.raises(InconsistentProfileError):
        general_entries_series(zero_ansatz(), prof, np.linspace(0.0, 2.0, 5))
    e = general_entries(zero_ansatz(), prof, 2.0, check=False)
    assert e.unitarity_defect < 1e-12


def test_series_requires_ascending_grid():
    prof = make_scenario("case1")
    with pytest.raises(ConfigError):
        general_entries_series(case1_ansatz(), prof, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ConfigError):
        general_entries_series(case1_ansatz(), prof, np.array([-1.0, 0.5]))


def test_interior_singularity_is_reported():
    # a shallow linear ansatz drives the accumulated cosine past a quarter
    # turn with sin(Theta) != 0 there, which has no integrable detuning
    slope = ThetaAnsatz(theta=lambda x: 0.3 * np.asarray(x, dtype=float),
                        label="slope")
    ev = ThetaEvaluator(slope)
    with pytest.raises(SingularAnsatzError):
        ev.detuning_ratio(1.7)
    with pytest.raises(NumericError):
        ev.r_int(2.0)
    # before the crossing everything is regular
    assert math.isfinite(ev.detuning_ratio(1.0))
    assert math.isfinite(ev.r_int(1.0))


def test_tabulated_ansatz_validation():
    with pytest.raises(ConfigError):
        ansatz_from_table([0.0, 1.0, 0.5], [0.0, 0.1, 0.2])
    with pytest.raises(ConfigError):
        ansatz_from_table([0.5, 1.0], [0.0, 0.1])
    with pytest.raises(ConfigError):
        ansatz_from_table([0.0, 1.0], [0.3, 0.1])
    with pytest.raises(ConfigError):
        ansatz_from_table([0.0], [0.0])
    with pytest.raises(ConfigError):
        ansatz_from_table([0.0, float("inf")], [0.0, 0.1])


def test_tabulated_ansatz_tracks_its_source():
    base = case2_ansatz()
    taus = np.linspace(0.0, 3.0, 601)
    table = ansatz_from_table(taus, base.theta(taus), label="sampled")
    # kinky interpolant: quadrature tolerance must sit below the tracking
    # accuracy, not at the smooth-ansatz default
    ev = ThetaEvaluator(table, quad_tol=1e-6)
    assert abs(ev.detuning_ratio(1.0) - case2_detuning_ratio(1.0)) < 1e-3
    prof = make_scenario("case2")
    e = general_entries(table, prof, 2.0, check=False, quad_tol=1e-6)
    ref = case2_series(prof, np.array([2.0]))
    assert abs(e.b - complex(ref[1][0])) < 1e-4
    assert abs(e.a - complex(ref[0][0])) < 1e-4


@pytest.mark.xfail(strict=True, reason="defect: panel_quad accepts a phi "
                   "panel that straddles a knot of the table (such as "
                   "[0.6268, 0.7521]), so phi_int misses the exact piecewise "
                   "integral by 6.2e-7 at quad_tol 1e-12 and raises nothing")
def test_tabulated_phi_int_meets_quad_tol_across_knots():
    x = np.linspace(0.0, 6.0, 25)
    taus = np.array([2.0057301731716124, 4.011460346343225])
    assert _table_phi_int_error(x, taus) <= 1e-12


def _table_phi_int_error(x, taus):
    """Largest phi_int error at quad_tol 1e-12 of the case2 table on x."""
    th = case2_theta(x)
    _, phi, _ = ThetaEvaluator(ansatz_from_table(x, th),
                               quad_tol=1e-12).triple(taus)
    # cos(Theta) on a linear piece integrates to the difference of
    # sin(Theta) over the slope
    slope = np.diff(th) / np.diff(x)
    exact = [np.sum(((np.sin(np.interp(np.minimum(x[1:], t), x, th))
                      - np.sin(th[:-1])) / slope)[x[:-1] < t]) for t in taus]
    return np.max(np.abs(phi - exact))


def test_thinned_panels_keep_the_budget_of_every_given_interval():
    # panel_quad tests one panel per 16 given intervals, but its bisection
    # budget still counts each given interval: a budget counting only the
    # starting panels raised QuadratureError on this table's knots
    x = np.linspace(0.0, 6.0, 49)
    assert _table_phi_int_error(x, np.linspace(0.0, 6.0, 65)[1:]) <= 1e-12


def test_phase_integrals_take_no_rule_per_node():
    # panel_quad tests one panel per 16 tau intervals and reaches the other
    # tau by one 8-point rule; phi_int at the r nodes comes from 16
    # cos(Theta) values per r panel (24 when it starts inside a mesh
    # panel). A panel per tau interval took 185,042 Theta points here, and
    # one 8-point rule from the mesh to every r node 457,025
    points = []

    def theta_counted(v):
        points.append(np.size(v))
        return case1_theta(v)

    ansatz = dataclasses.replace(case1_ansatz(), theta=theta_counted)
    points.clear()
    ThetaEvaluator(ansatz).triple(np.linspace(0.0, 5.0, 1001))
    assert sum(points) <= 60_000


def test_general_entries_series_holds_little_per_sample():
    # a panel per sample interval held 3.25 MB here at the peak
    profile = make_scenario("case1")
    ts = np.linspace(0.0, 6.0, 1001)
    general_entries_series(case1_ansatz(), profile, ts)  # warm caches
    tracemalloc.start()
    try:
        general_entries_series(case1_ansatz(), profile, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_table_loading_round_trip(tmp_path):
    path = tmp_path / "ramp.csv"
    path.write_text("tau,theta\n0.0,0.0\n1.0,0.2\n2.0,0.8\n")
    ansatz = load_ansatz_table(path)
    assert ansatz.label == "ramp"
    assert ansatz.theta(0.5) == pytest.approx(0.1)
    assert ansatz.theta(3.0) == pytest.approx(0.8)  # held past the last node
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.0\n0.5,oops\n")
    with pytest.raises(ConfigError):
        load_ansatz_table(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("# comment only\n")
    with pytest.raises(ConfigError):
        load_ansatz_table(empty)


def test_verify_matching_pairs_pass():
    report = verify_ansatz(case1_ansatz(), make_scenario("case1"), 3.0)
    assert report.passed
    assert report.residual_max <= 1e-9
    assert report.entries_deviation_max <= 1e-6
    report2 = verify_ansatz(case2_ansatz(), make_scenario("case2"), 5.0)
    assert report2.passed
    assert report2.residual_max <= 1e-9


@pytest.mark.parametrize("tols,quad_tol", [
    ({}, 1e-10), ({"tol": 1e-4, "entries_tol": 1e-3}, 1e-6),
    ({"tol": 1e-13}, 1e-12)])
def test_verify_derives_quad_tol_from_its_tolerances(tols, quad_tol,
                                                     monkeypatch):
    seen = []
    evaluator = theta.ThetaEvaluator
    monkeypatch.setattr(theta, "ThetaEvaluator", lambda a, *, quad_tol: (
        seen.append(quad_tol) or evaluator(a, quad_tol=quad_tol)))
    verify_ansatz(case2_ansatz(), make_scenario("case2"), 2.0, samples=9,
                  **tols)
    assert seen and seen == pytest.approx([quad_tol] * len(seen))


def test_verify_probes_the_profile_scale_once(monkeypatch):
    prof = make_scenario("case2")
    explicit = verify_ansatz(case2_ansatz(), prof, 5.0, samples=33,
                             config=propagator.PropagatorConfig(
                                 scheme="commutator_free_4th",
                                 step=propagator.suggested_step(
                                     prof, 5.0, "commutator_free_4th")))
    calls = []
    probe = propagator.profile_scale
    monkeypatch.setattr(propagator, "profile_scale",
                        lambda *a: calls.append(a) or probe(*a))
    # the default oracle is CF4 at the automatic step, from one probe
    assert verify_ansatz(case2_ansatz(), prof, 5.0, samples=33) == explicit
    assert len(calls) == 1


def test_verify_reports_mismatch_without_raising():
    prof = make_scenario("constant_beta0")  # detuning = |omega|, never zero
    report = verify_ansatz(zero_ansatz(), prof, 4.0)
    assert not report.passed
    assert not report.residual_ok
    assert report.residual_max == pytest.approx(1.0, abs=1e-9)


def test_verify_window_validation():
    with pytest.raises(ConfigError):
        verify_ansatz(case1_ansatz(), make_scenario("case1"), (1.0, 3.0))
    with pytest.raises(ConfigError):
        verify_ansatz(case1_ansatz(), make_scenario("case1"), 0.0)



@pytest.mark.parametrize("tols", [
    {"tol": math.nan}, {"tol": 0.0}, {"entries_tol": math.inf},
    {"entries_tol": -1.0}])
def test_verify_tolerances_must_be_finite_and_positive(tols):
    # an infinite entries_tol once passed a failed oracle comparison
    with pytest.raises(ConfigError, match="must be finite and > 0"):
        verify_ansatz(case2_ansatz(), make_scenario("case2"), 5.0, **tols)

def test_named_ansatz_catalog():
    assert named_ansatz("zero").label == "zero"
    assert named_ansatz("case1").label == "case1"
    assert named_ansatz("case2").label == "case2"
    with pytest.raises(ConfigError):
        named_ansatz("case3")


def test_zero_locked_ratio_degenerates_to_zero_ansatz():
    ansatz = beta0_ansatz(0.0)
    assert ansatz.label == "beta0=0"
    ev = ThetaEvaluator(ansatz)
    assert ev.detuning_ratio(1.3) == 0.0
    assert ev.phi_int(1.3) == 1.3
    assert ev.r_int(1.3) == 0.0


def test_theta_route_makes_no_scalar_quadrature_calls(monkeypatch):
    # that no CLI command even imports scipy is checked in test_cli
    def forbidden(*args, **kwargs):
        raise AssertionError("a scalar quadrature pin was called")

    for module in (quadrature, closed_forms, theta):
        monkeypatch.setattr(module, "adaptive_quad", forbidden)
    monkeypatch.setattr(quadrature.CumulativeIntegral, "__call__", forbidden)
    for name, window in (("case1", 3.0), ("case2", 5.0)):
        prof = make_scenario(name)
        ansatz = named_ansatz(name)
        ts = np.linspace(0.0, window, 65)
        a, b = general_entries_series(ansatz, prof, ts)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        assert verify_ansatz(ansatz, prof, window, samples=65).passed
    case1_series(make_scenario("case1"), np.linspace(0.0, 3.0, 65))

    # every former scalar-quadrature caller, on profiles without tau_of_t
    exp = make_scenario("exp_resonant")
    bare = dataclasses.replace(exp, tau_of_t=None)
    ts = np.linspace(0.0, 4.0, 33)
    assert np.allclose(transverse_area_series(bare, ts), exp.tau_of_t(ts),
                       rtol=0, atol=1e-12)
    assert transverse_area(bare, 4.0) == pytest.approx(
        float(exp.tau_of_t(4.0)), abs=1e-12)
    assert elliptic_phase(2.0) == pytest.approx(
        -ThetaEvaluator(case1_ansatz()).r_int(2.0), abs=1e-9)
    for name, entries in (("case1", case1_entries), ("case2", case2_entries)):
        prof = make_scenario(name)
        got = entries(prof.omega_mag, prof.phi_omega, 1.5)
        want = entries(prof.omega_mag, prof.phi_omega, 1.5,
                       tau=float(prof.tau_of_t(1.5)))
        assert abs(got.b - want.b) < 1e-12
    case2 = make_scenario("case2")
    assert induced_detuning(case2_ansatz(), case2.omega_mag, 0.5) \
        == pytest.approx(case2_detuning_ratio(0.5), abs=1e-9)
    assert phase_integrals(case2_ansatz(), case2.omega_mag, 0.9).phi_int \
        == pytest.approx(PHI2_AT_0_9, abs=1e-10)
    modes = to_su2_profile(CouplingSpec(
        k_ab=lambda z: 1.0 / np.cosh(np.asarray(z, dtype=float)), delta=0.0))
    assert modes.tau_of_t is None
    assert verify_ansatz(zero_ansatz(), modes, 3.0, samples=33).passed


@pytest.mark.parametrize("omega_mag, tau_of", [
    (lambda t: 1.0, lambda t: t),
    (lambda t: math.exp(-t), lambda t: 1.0 - math.exp(-t)),
], ids=["constant", "scalar_only"])
def test_bare_omega_mag_may_be_a_constant_or_scalar_only(omega_mag, tau_of):
    # both once failed inside gauss_legendre with a bare ValueError or
    # TypeError; they are taken through quadrature.on_arrays
    phi = lambda t: 0.3 * t
    for entries in (case1_entries, case2_entries):
        got = entries(omega_mag, phi, 1.5)
        want = entries(omega_mag, phi, 1.5, tau=tau_of(1.5))
        assert abs(got.a - want.a) < 1e-12 and abs(got.b - want.b) < 1e-12
    assert induced_detuning(case2_ansatz(), omega_mag, 0.5) == pytest.approx(
        omega_mag(0.5) * case2_detuning_ratio(tau_of(0.5)), abs=1e-9)
    assert phase_integrals(case2_ansatz(), omega_mag, 0.9).phi_int \
        == pytest.approx(math.atan(tau_of(0.9)), abs=1e-10)


def test_interior_singularity_surfaces_through_series_and_verify():
    # the slope ansatz of test_interior_singularity_is_reported, on a clock
    # tau = t that passes its crossing near tau = 1.64
    slope = ThetaAnsatz(theta=lambda x: 0.3 * np.asarray(x, dtype=float),
                        label="slope")
    prof = make_scenario("case2")
    ts = np.linspace(0.0, 2.0, 9)
    assert np.allclose(transverse_area_series(prof, ts), ts)
    with pytest.raises(SingularAnsatzError):
        general_entries_series(slope, prof, ts)
    report = verify_ansatz(slope, prof, 2.0, samples=33)
    assert not report.passed
    assert "residual evaluation failed: sin(2 phi_int)" in report.note


def test_locked_ratio_ansatz_survives_huge_beta0():
    # sqrt(1 + beta0^2) overflowed at beta0 = 1e300, so Theta(0) was NaN
    ev = ThetaEvaluator(beta0_ansatz(1e300))
    taus = np.linspace(0.0, 1e-299, 5)
    for values in ev.triple(taus):
        assert np.all(np.isfinite(values))
    assert np.allclose(ev.ratios(taus), 1e300, rtol=1e-12)


def _stencil_reference(theta, tau):
    # the scalar 5-point stencil the vectorized one replaced
    h = 1e-6 * max(1.0, abs(tau))
    if tau >= 2.0 * h:
        f = [float(theta(tau + k * h)) for k in (-2.0, -1.0, 1.0, 2.0)]
        return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    f = [float(theta(tau + k * h)) for k in range(5)]
    return (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2]
            + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)


def test_numeric_theta_prime_is_the_scalar_stencil_on_arrays():
    base = case2_ansatz()
    bare = ThetaAnsatz(theta=base.theta, label="case2 without Theta'")
    taus = np.array([0.0, 1e-7, 1.9e-6, 2e-6, 0.3, 1.0, 7.5])
    got = ThetaEvaluator(bare).theta_prime(taus)
    ref = np.array([_stencil_reference(bare.theta, x) for x in taus])
    assert np.max(np.abs(got - ref)) < 1e-9
    assert np.max(np.abs(got - base.theta_prime(taus))) < 1e-8
