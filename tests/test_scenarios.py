import dataclasses
import math

import numpy as np
import pytest

from genrabi.closed_forms import beta0_series
from genrabi.errors import ConfigError
from genrabi.fields import detuning, is_generalized_resonant
from genrabi.propagator import Trajectory
from genrabi.theta import ThetaAnsatz
from genrabi.scenarios import (
    DEFAULT_SAMPLES,
    FAMILIES,
    ScenarioParams,
    _CATALOG,
    closed_form_series,
    default_ansatz,
    default_window,
    family_summary,
    make_scenario,
    scenario_time_scale,
)

RESONANT = ("sech_resonant", "exp_resonant", "modulated_resonant")


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
    by_alpha = ScenarioParams(
        "exp_resonant", {"alpha": 3.0 * math.pi}).params
    assert by_alpha["gamma"] == pytest.approx(1.0 / (3.0 * math.pi))
    # default alpha is 4.5 pi
    default = ScenarioParams("exp_resonant").params
    assert default["omega_mag0"] / default["gamma"] == pytest.approx(
        4.5 * math.pi)
    with pytest.raises(ConfigError):
        ScenarioParams("exp_resonant", {"gamma": 0.1, "alpha": 2.0})


def test_params_are_resolved_once_and_resolving_is_idempotent():
    params = ScenarioParams("exp_resonant", {"alpha": 3.0 * math.pi})
    gamma = 1.0 / (3.0 * math.pi)
    assert params.params == {"omega_mag0": 1.0, "gamma": gamma,
                             "phi_dot0": 10.0 * gamma}
    assert ScenarioParams("exp_resonant", params.params).params == \
        params.params
    modulated = ScenarioParams("modulated_resonant", {"n": 4.0}).params
    assert type(modulated["n"]) is int
    assert ScenarioParams("modulated_resonant", modulated).params == modulated
    for family in FAMILIES:
        once = ScenarioParams(family).params
        assert ScenarioParams(family, once).params == once, family


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
        ScenarioParams(family, params)
    # the offending parameter is named in the message
    assert any(key in str(err.value) for key in params)


def test_numpy_scalar_parameters_are_numbers():
    # a NumPy integer n was once refused as "not a finite number", while
    # modulated_probability took it
    params = ScenarioParams("modulated_resonant", {
        "n": np.int64(3), "C": np.float32(0.5)}).params
    assert params["n"] == 3 and type(params["n"]) is int
    assert params["C"] == 0.5
    with pytest.raises(ConfigError, match="^parameter 'C' must be a finite "
                       "number$"):
        ScenarioParams("modulated_resonant", {"C": np.float64(math.inf)})
    # an int past the float range once raised OverflowError (a traceback
    # from a JSON config)
    with pytest.raises(ConfigError, match="^parameter 'omega_mag0' must be "
                       "a finite number$"):
        ScenarioParams("rabi", {"omega_mag0": 10 ** 400})


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


def test_detuning_reads_the_lab_fields_not_a_stated_detuning():
    # a catalog profile whose Omega is replaced keeps its stated Delta = 0,
    # which only the resonance frame reads (and profile_scale checks); the
    # lab fields give Omega + phi_omega_dot/2 = -4.7 + 10/2 = 0.3
    stale = dataclasses.replace(
        make_scenario("sech_resonant"),
        omega_z=lambda t: np.full_like(np.asarray(t, dtype=float), -4.7))
    ts = np.linspace(0.0, 6.0, 7)
    assert np.max(np.abs(detuning(stale, ts) - 0.3)) < 1e-12
    assert not is_generalized_resonant(stale, 6.0)
    traj = Trajectory.from_entries(stale, ts, np.ones(7), np.zeros(7))
    assert np.max(np.abs(traj.detuning - 0.3)) < 1e-12


def test_phase_is_continuous_at_default_sampling():
    for family in FAMILIES:
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
    assert {row["family"]: row["axis"] for row in rows} == {
        "rabi": "omega_mag0*t", "sech_resonant": "omega_mag0*t",
        "exp_resonant": "gamma*t", "modulated_resonant": "phi_dot0*t",
        "constant_beta0": "omega_mag0*t", "case1": "omega_mag0*t",
        "case2": "omega_mag0*t"}


def test_building_and_closed_forms_construct_no_ansatz(monkeypatch):
    # a ThetaAnsatz costs microseconds to build; only default_ansatz may
    built = []
    check = ThetaAnsatz.__post_init__
    monkeypatch.setattr(ThetaAnsatz, "__post_init__",
                        lambda self: (built.append(self.label), check(self)))
    ts = np.linspace(0.0, 2.0, 9)
    for family in FAMILIES:
        for split in (0.0, 0.4) if family in ("case1", "case2") else (0.0,):
            params = ScenarioParams(family, split_fraction=split)
            closed_form_series(params, make_scenario(params), ts)
    assert built == []
    default_ansatz(ScenarioParams("rabi"))  # the count sees a construction
    assert built == ["beta0=1"]


def test_split_zero_evaluates_the_ratio_once_per_grid(monkeypatch):
    # at split 0 phi_dot is the constant rate: the detuning check reads the
    # ratio once from the solution and once through Omega, and the
    # trajectory's Omega and Delta columns read it once each
    calls = []
    fam = _CATALOG["case2"]
    triple, ratio, integral = fam.solution
    counted = lambda tau: (calls.append(1), ratio(tau))[1]
    monkeypatch.setitem(_CATALOG, "case2", dataclasses.replace(
        fam, solution=(triple, counted, integral)))
    params = ScenarioParams("case2")
    profile = make_scenario(params)
    ts = np.linspace(0.0, 2.0, 9)
    a, b = closed_form_series(params, profile, ts)
    assert len(calls) == 2
    calls.clear()
    Trajectory.from_entries(profile, ts, a, b)
    assert len(calls) == 2


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
