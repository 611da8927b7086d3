import math

import numpy as np
import pytest

from genrabi import propagator
from genrabi.closed_forms import case2_series
from genrabi.errors import (ConfigError, NumericError, StepResolutionError,
                            UnitarityDriftError)
from genrabi.fields import FieldProfile
from genrabi.propagator import (
    SCHEMES,
    PropagatorConfig,
    Trajectory,
    propagate,
    richardson_check,
    suggested_step,
)
from genrabi.propagator import _step_factors
from genrabi.scenarios import (BUILT_IN, ScenarioParams, default_window,
                               make_scenario, scenario_time_scale)


def constant_drive():
    # omega_z = 0, |omega| = 1, phi = 0: exact entries cos(t), -i sin(t)
    return make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 1.0, "phi_dot0": 0.0}))


def diagonal_profile(omega_z0):
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return FieldProfile(
        omega_z=lambda t: np.full_like(np.asarray(t, dtype=float), omega_z0),
        omega_mag=zero, phi_omega=zero, phi_omega_dot=zero,
        label="diagonal")


def test_config_validation():
    with pytest.raises(ConfigError):
        PropagatorConfig(scheme="rk4")
    with pytest.raises(ConfigError):
        PropagatorConfig(step=0.0)
    with pytest.raises(ConfigError):
        PropagatorConfig(samples=1)


def test_config_checks_the_sample_range():
    for bad in (1, 2 ** 24 + 2, 1e20, 10 ** 20, 2.5, math.nan, math.inf):
        with pytest.raises(ConfigError,
                           match=r"samples must be an integer in \[2, "
                                 r"16777217\]"):
            PropagatorConfig(samples=bad)
    assert PropagatorConfig(samples=2 ** 24 + 1).samples == 2 ** 24 + 1
    whole = PropagatorConfig(samples=11.0).samples
    assert whole == 11 and type(whole) is int


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", BUILT_IN)
def test_automatic_step_is_the_suggested_step(family, scheme):
    # step=None integrates exactly as an explicit suggested_step does; a
    # tenth of the default window keeps the slowest family fast
    prof = make_scenario(family)
    t_max = 0.1 * default_window(family)[0] / scenario_time_scale(family)
    auto = propagate(prof, PropagatorConfig(scheme=scheme, samples=11), t_max)
    explicit = propagate(prof, PropagatorConfig(
        scheme=scheme, step=suggested_step(prof, t_max), samples=11), t_max)
    assert auto.step == explicit.step
    assert np.array_equal(auto.a, explicit.a)
    assert np.array_equal(auto.b, explicit.b)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_constant_drive_is_integrated_exactly(scheme):
    # a constant Hamiltonian makes every exponential factor exact, so both
    # schemes reproduce the rotation at round-off level for any step
    config = PropagatorConfig(scheme=scheme, step=0.05, samples=41)
    traj = propagate(constant_drive(), config, 2.0)
    assert np.max(np.abs(traj.a - np.cos(traj.t))) < 1e-12
    assert np.max(np.abs(traj.b + 1j * np.sin(traj.t))) < 1e-12


def test_diagonal_profile_phase_rotation():
    omega_z0 = 0.7
    config = PropagatorConfig(step=0.02, samples=26)
    traj = propagate(diagonal_profile(omega_z0), config, 5.0)
    assert np.max(np.abs(traj.a - np.exp(-1j * omega_z0 * traj.t))) < 1e-13
    assert np.max(np.abs(traj.b)) == 0.0


def test_oracle_tracks_sech_closed_form():
    prof = make_scenario("sech_resonant")
    step = suggested_step(prof, 6.0)
    traj = propagate(prof, PropagatorConfig(step=step, samples=601), 6.0)
    assert np.max(np.abs(traj.p_flip - np.tanh(traj.t) ** 2)) < 1e-6
    fine = propagate(prof, PropagatorConfig(
        scheme="commutator_free_4th", step=step, samples=601), 6.0)
    assert np.max(np.abs(fine.p_flip - np.tanh(fine.t) ** 2)) < 1e-9


def test_step_factors_are_unitary():
    rng = np.random.default_rng(7)
    om = rng.normal(size=64)
    ow = rng.normal(size=64) + 1j * rng.normal(size=64)
    alpha, beta = _step_factors(om, ow, 0.37)
    # the operator [[alpha, beta], [-conj(beta), conj(alpha)]] has
    # determinant |alpha|^2 + |beta|^2
    det = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    assert np.max(np.abs(det - 1.0)) < 1e-14
    # zero-energy entries degenerate cleanly
    a0, b0 = _step_factors(np.zeros(3), np.zeros(3, dtype=complex), 0.5)
    assert np.all(a0 == 1.0) and np.all(b0 == 0.0)


def test_time_reversed_profile_inverts_the_evolution():
    t_end = 3.0
    prof = make_scenario(ScenarioParams("case2", split_fraction=0.5))

    def rev(fn, flip=1.0):
        return lambda s: flip * fn(t_end - np.asarray(s, dtype=float))

    reverse = FieldProfile(
        omega_z=rev(prof.omega_z, -1.0),
        omega_mag=rev(prof.omega_mag),
        phi_omega=lambda s: prof.phi_omega(
            t_end - np.asarray(s, dtype=float)) + math.pi,
        phi_omega_dot=rev(prof.phi_omega_dot, -1.0),
        label="case2 reversed")
    config = PropagatorConfig(scheme="commutator_free_4th", step=2e-3,
                              samples=31)
    fwd = propagate(prof, config, t_end)
    bwd = propagate(reverse, config, t_end)
    a1, b1 = fwd.a[-1], fwd.b[-1]
    a2, b2 = bwd.a[-1], bwd.b[-1]
    # composing the reversed evolution after the forward one gives identity
    comp_a = a2 * a1 - b2 * np.conj(b1)
    comp_b = a2 * b1 + b2 * np.conj(a1)
    ac, bc = case2_series(prof, np.array([t_end]))
    one_way = max(abs(a1 - complex(ac[0])), abs(b1 - complex(bc[0])), 1e-14)
    defect = max(abs(comp_a - 1.0), abs(comp_b))
    assert defect <= 10.0 * 2.0 * one_way


def test_richardson_orders():
    prof = make_scenario("case2")
    mid = richardson_check(
        prof, PropagatorConfig(step=0.01, samples=11), 5.0)
    assert mid.within_tolerance
    assert mid.observed_order == pytest.approx(2.0, abs=0.3)
    cf4 = richardson_check(
        prof, PropagatorConfig(scheme="commutator_free_4th", step=0.02,
                               samples=11), 5.0)
    assert cf4.within_tolerance
    assert cf4.observed_order == pytest.approx(4.0, abs=0.3)


def test_richardson_reports_roundoff_on_exact_profiles():
    report = richardson_check(
        diagonal_profile(0.4), PropagatorConfig(step=0.05, samples=11), 2.0)
    assert report.within_tolerance
    assert math.isnan(report.observed_order)
    assert "round-off" in report.note


@pytest.mark.parametrize("beta0, omega", [(1.0, 1.0), (0.3, 2.0), (2.0, 0.5)])
@pytest.mark.parametrize("scheme, step_factor", [
    ("midpoint_exponential", 1.0), ("commutator_free_4th", 10.0)])
def test_richardson_roundoff_floor_scales_with_step_count(beta0, omega, scheme,
                                                          step_factor):
    # the locked-ratio drive is constant, so both schemes integrate it
    # exactly; differences of 1e-13 to 4e-12 over ~1e4-1e5 exponentials are
    # round-off, not an order estimate
    prof = make_scenario(ScenarioParams(
        "constant_beta0", {"beta0": beta0, "omega_mag0": omega}))
    t_max = 4.0 * math.pi / omega
    step = step_factor * suggested_step(prof, t_max)
    report = richardson_check(
        prof, PropagatorConfig(scheme=scheme, step=step, samples=11), t_max)
    assert report.within_tolerance
    assert math.isnan(report.observed_order)
    assert "round-off" in report.note
    assert max(report.coarse_diff, report.fine_diff) <= 1e-10


def test_resolution_guard():
    fast = make_scenario(ScenarioParams("rabi", {"phi_dot0": 200.0}))
    with pytest.raises(StepResolutionError) as err:
        propagate(fast, PropagatorConfig(step=1e-3, samples=11), 1.0)
    assert "use step <=" in str(err.value)
    # a compliant step passes
    propagate(fast, PropagatorConfig(step=4e-4, samples=11), 1.0)


def _nan_profile(centre, *, rate=False):
    # |omega| (or, with rate, the phase rate alone) is NaN on
    # |t - centre| < 1e-3, the rest a resonant unit drive
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    spike = lambda t: np.where(np.abs(np.asarray(t) - centre) < 1e-3,
                               np.nan, 1.0)
    return FieldProfile(omega_z=zero, phi_omega=zero, label="nan spike",
                        omega_mag=(lambda t: 1.0 + zero(t)) if rate else spike,
                        phi_omega_dot=spike if rate else zero)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_non_finite_profile_is_a_numeric_failure(scheme):
    # the entries once came out NaN with a NaN drift that passed the drift
    # bound; 0.502 falls between the scale probes, so the sweep finds it
    config = PropagatorConfig(scheme=scheme, step=1e-3, samples=11)
    with pytest.raises(NumericError, match=r"substep from t=0\.501"):
        propagate(_nan_profile(0.502), config, 1.0)
    # a NaN on a scale probe, in |omega| or in the phase rate alone (which
    # once skipped the resolution check), fails before the sweep
    for profile in (_nan_profile(0.5), _nan_profile(0.5, rate=True)):
        with pytest.raises(NumericError, match="no finite scale"):
            propagate(profile, config, 1.0)
        with pytest.raises(NumericError, match="no finite scale"):
            suggested_step(profile, 1.0)


def test_substep_ceiling_error_quotes_the_real_count():
    prof = make_scenario("sech_resonant")
    # one substep per interval: 4 (2^23 - 1) substeps, whatever the step
    with pytest.raises(ConfigError) as err:
        richardson_check(prof, PropagatorConfig(step=1.0, samples=2 ** 23),
                         6.0)
    assert "need 3.355e+07 substeps" in str(err.value)
    assert str(err.value).endswith("use samples <= 4194305")
    # here a larger step is the way out
    with pytest.raises(ConfigError) as err:
        propagate(prof, PropagatorConfig(step=1e-9, samples=3), 6.0)
    assert "need 6.000e+09 substeps" in str(err.value)
    assert str(err.value).endswith("use step >= 3.576e-07")


def test_drift_guard_uses_configured_bound(monkeypatch):
    monkeypatch.setattr(propagator, "_MAX_DRIFT", 0.0)
    prof = make_scenario("sech_resonant")
    with pytest.raises(UnitarityDriftError):
        propagate(prof, PropagatorConfig(step=5e-3, samples=201), 2.0)


def test_window_validation():
    prof = constant_drive()
    config = PropagatorConfig(samples=11)
    with pytest.raises(ConfigError):
        propagate(prof, config, (1.0, 2.0))
    with pytest.raises(ConfigError):
        propagate(prof, config, 0.0)


def test_trajectory_layout_and_observables():
    prof = make_scenario("sech_resonant")
    traj = propagate(prof, PropagatorConfig(step=1e-3, samples=101), 3.0)
    assert traj.a[0] == 1.0 + 0.0j
    assert traj.b[0] == 0.0j
    assert np.all(np.diff(traj.t) > 0)
    assert np.max(np.abs(traj.p_flip - np.abs(traj.b) ** 2)) == 0.0
    bloch = traj.sigma_x ** 2 + traj.sigma_y ** 2 + traj.sigma_z ** 2
    assert np.max(np.abs(bloch - 1.0)) < 1e-10
    assert traj.scheme == "midpoint_exponential"
    assert traj.label == prof.label
    assert traj.unitarity_drift < 1e-12


def test_trajectory_from_entries_matches_closed_form_columns():
    prof = make_scenario("case2")
    ts = np.linspace(0.0, 4.0, 9)
    a, b = case2_series(prof, ts)
    traj = Trajectory.from_entries(prof, ts, a, b, scheme=None, step=None)
    assert np.max(np.abs(traj.sigma_z - (np.abs(a) ** 2 - np.abs(b) ** 2))) < 1e-14
    assert traj.unitarity_drift < 1e-12
    assert traj.scheme is None


def test_suggested_step_scales():
    prof = make_scenario("sech_resonant")
    assert suggested_step(prof, 6.0) == pytest.approx(0.0015 / 10.0)
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    silent = FieldProfile(omega_z=zero, omega_mag=zero, phi_omega=zero,
                          phi_omega_dot=zero, label="silent")
    assert suggested_step(silent, 5.0) == pytest.approx(0.05)
    gentle = make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 1e-6, "phi_dot0": 0.0}))
    assert suggested_step(gentle, 10.0) == pytest.approx(1.0)


def test_effective_substep_never_exceeds_configured_step():
    prof = constant_drive()
    traj = propagate(prof, PropagatorConfig(step=0.3, samples=11), 1.0)
    assert traj.step == pytest.approx(0.1)  # one substep per interval
    traj2 = propagate(prof, PropagatorConfig(step=0.04, samples=11), 1.0)
    assert traj2.step == pytest.approx(0.1 / 3.0)
    assert traj2.step <= 0.04 + 1e-15
