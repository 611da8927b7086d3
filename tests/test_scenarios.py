import math

import numpy as np
import pytest

from genrabi.closed_forms import beta0_series
from genrabi.errors import ConfigError
from genrabi.fields import detuning, is_generalized_resonant
from genrabi.scenarios import (
    DEFAULT_SAMPLES,
    FAMILIES,
    ScenarioParams,
    closed_form_series,
    default_window,
    family_summary,
    make_scenario,
    resolved_params,
    scenario_time_scale,
)

RESONANT = ("sech_resonant", "exp_resonant", "modulated_resonant")
BUILT_IN = tuple(f for f in FAMILIES if f != "custom")


def test_sech_profile_functions():
    prof = make_scenario("sech_resonant")
    grid = np.linspace(0.0, 6.0, 61)
    assert np.max(np.abs(prof.omega_mag(grid) - 1.0 / np.cosh(grid))) < 1e-15
    assert np.max(np.abs(prof.phi_omega(grid) - 10.0 * grid)) < 1e-12
    assert np.max(np.abs(prof.omega_z(grid) + 5.0)) < 1e-15


def test_modulated_profile_functions():
    prof = make_scenario(
        ScenarioParams("modulated_resonant", {"C": 1.0, "k": 1.0, "n": 10}))
    grid = np.linspace(0.0, 4.0, 41)
    expected = 1.0 * (1.0 + 1.0 * np.cos(10.0 * grid))
    assert np.max(np.abs(prof.omega_mag(grid) - expected)) < 1e-14
    assert np.max(np.abs(
        prof.tau_of_t(grid) - (grid + np.sin(10.0 * grid) / 10.0))) < 1e-14


def test_exp_alpha_parametrization():
    by_alpha = resolved_params(
        ScenarioParams("exp_resonant", {"alpha": 3.0 * math.pi}))
    assert by_alpha["gamma"] == pytest.approx(1.0 / (3.0 * math.pi))
    # default alpha is 4.5 pi
    default = resolved_params(ScenarioParams("exp_resonant"))
    assert default["omega_mag0"] / default["gamma"] == pytest.approx(
        4.5 * math.pi)
    with pytest.raises(ConfigError):
        resolved_params(ScenarioParams(
            "exp_resonant", {"gamma": 0.1, "alpha": 2.0}))


@pytest.mark.parametrize("family,params", [
    ("exp_resonant", {"gamma": 0.0}),
    ("exp_resonant", {"alpha": -1.0}),
    ("modulated_resonant", {"n": 2.5}),
    ("modulated_resonant", {"n": 0}),
    ("modulated_resonant", {"k": 1.5}),
    ("modulated_resonant", {"k": -0.1}),
    ("constant_beta0", {"beta0": -0.5}),
    ("rabi", {"omega_mag0": 0.0}),
    ("sech_resonant", {"bogus": 1.0}),
    ("case1", {"omega_mag0": float("nan")}),
])
def test_parameter_domain_violations(family, params):
    with pytest.raises(ConfigError) as err:
        resolved_params(ScenarioParams(family, params))
    # the offending parameter is named in the message
    assert any(key in str(err.value) for key in params)


def test_unknown_family_and_custom_are_rejected():
    with pytest.raises(ConfigError):
        ScenarioParams("sech")
    with pytest.raises(ConfigError):
        make_scenario("custom")


def test_split_fraction_validation():
    with pytest.raises(ConfigError):
        ScenarioParams("sech_resonant", split_fraction=0.5)
    with pytest.raises(ConfigError):
        ScenarioParams("case1", split_fraction=1.5)
    with pytest.raises(ConfigError):  # a bool is not a number
        ScenarioParams("case1", split_fraction=True)
    # valid on the detuned arctangent families
    ScenarioParams("case1", split_fraction=1.0)
    ScenarioParams("case2", split_fraction=0.25)


def test_split_fraction_leaves_detuning_invariant():
    grid = np.linspace(0.0, 8.0, 81)
    for family in ("case1", "case2"):
        base = detuning(make_scenario(family), grid)
        for f in (0.3, 1.0):
            prof = make_scenario(ScenarioParams(family, split_fraction=f))
            assert np.max(np.abs(detuning(prof, grid) - base)) < 1e-12


def test_resonant_families_have_zero_detuning():
    for family in RESONANT:
        prof = make_scenario(family)
        t_max, _ = default_window(family)
        t_max /= scenario_time_scale(family)
        assert is_generalized_resonant(prof, t_max, tol=1e-12), family


def test_phase_is_continuous_at_default_sampling():
    for family in BUILT_IN:
        prof = make_scenario(family)
        t_max, samples = default_window(family)
        grid = np.linspace(0.0, t_max / scenario_time_scale(family), samples)
        phase = prof.phi_omega(grid)
        assert np.max(np.abs(np.diff(phase))) < math.pi, family


def test_time_scales_and_default_windows():
    assert scenario_time_scale("sech_resonant") == 1.0
    assert scenario_time_scale("exp_resonant") == pytest.approx(
        1.0 / (4.5 * math.pi))
    assert scenario_time_scale(ScenarioParams(
        "modulated_resonant", {"phi_dot0": 2.0})) == 2.0
    assert default_window("sech_resonant") == (6.0, DEFAULT_SAMPLES)
    assert default_window("case1") == (50.0, DEFAULT_SAMPLES)
    assert default_window("exp_resonant")[0] == 20.0


def test_family_summary_covers_catalog():
    rows = family_summary()
    assert [row["family"] for row in rows] == list(FAMILIES)
    by_name = {row["family"]: row for row in rows}
    assert by_name["exp_resonant"]["axis"] == "gamma*t"
    assert by_name["custom"]["default_t_max"] is None


def test_labels_name_family_and_parameters():
    prof = make_scenario(ScenarioParams("case2", split_fraction=0.5))
    assert prof.label.startswith("case2(")
    assert "split=0.5" in prof.label


def test_closed_form_series_dispatch():
    params = ScenarioParams("rabi")
    prof = make_scenario(params)
    ts = np.linspace(0.0, 5.0, 11)
    a, b = closed_form_series(params, prof, ts)
    # the generic constant triple reduces to the locked-detuning form with
    # beta = (omega_z0 + phi_dot0/2) / omega_mag0
    a2, b2 = beta0_series(prof, 1.0, ts, tol=1e-9)
    assert np.max(np.abs(a - a2)) == 0.0
    assert np.max(np.abs(b - b2)) == 0.0
    with pytest.raises(ConfigError):
        closed_form_series(ScenarioParams("custom"), prof, ts)
