"""Closed-form entries against frozen reference values.

The complex reference entries were frozen from an independent high-order
adaptive integration of the two-level Schrodinger equation (relative
tolerance 1e-12); the scalar phase integrals were frozen from 30-digit
arbitrary-precision quadrature. Each constant records the profile that
produced it.
"""

import dataclasses
import math

import numpy as np
import pytest

from genrabi.closed_forms import (
    EvolutionEntries,
    beta0_entries,
    beta0_series,
    case1_detuning_integral,
    case1_detuning_ratio,
    case1_entries,
    case1_probability_deficit,
    case1_series,
    case2_detuning_integral,
    case2_detuning_ratio,
    case2_entries,
    case2_series,
    elliptic_phase,
    modulated_probability,
    resonance_asymptote,
    resonance_entries,
    resonance_series,
)
from genrabi.errors import ConfigError, InconsistentProfileError, NumericError
from genrabi.scenarios import ScenarioParams, make_scenario

# sech_resonant defaults (omega_z = -5, |omega| = sech t, phi = 10 t) at t = 2
SECH_T2_A = -0.22302708258002804 - 0.14460202380735926j
SECH_T2_B = -0.524451355040671 + 0.8088880956861081j

# exp_resonant with total area 3 pi (gamma = 1/(3 pi), |omega(0)| = 1,
# phi_dot = 10 gamma) at gamma t = 1
EXP_A3PI_GT1_A = 0.2687592444115633 - 0.9085446588008976j
EXP_A3PI_GT1_B = 0.30672849150788 + 0.0907342493499375j

# constant_beta0 with beta0 = 0.5 (omega_z = 0.5, |omega| = 1, phi = 0) at t = 2
BETA05_T2_A = -0.6172728764570027 - 0.3518449078757491j
BETA05_T2_B = -0.7036898157514982j

# case1 with split 0 (omega_z = ratio(t), |omega| = 1, phi = 0) at t = 3
CASE1_T3_A = -0.4468870819516444 + 0.6184589150764289j
CASE1_T3_B = 0.3642720431790834 + 0.5339535418979819j

# case2 with split 1 (omega_z = 0, |omega| = 1, phi = 2 * integral) at t = 4
CASE2F1_T4_A = 0.03015857108284996 - 0.2406532567865861j
CASE2F1_T4_B = 0.5659554499828503 + 0.7879536148928205j

# elliptic phase term of the case1 entries at tau = 0.5, 1, 2, 5
ELLIPTIC_REF = {
    0.5: -0.6674075266766647,
    1.0: -1.2419453551805444,
    2.0: -2.2950320835196556,
    5.0: -5.331082691838545,
}


def test_entries_container_enforces_unitarity():
    with pytest.raises(ConfigError):
        EvolutionEntries(a=0.5 + 0.0j, b=0.0j, t=0.0)
    e = EvolutionEntries(a=complex(math.cos(0.3)), b=1j * math.sin(0.3), t=0.0)
    assert e.a_mag == pytest.approx(math.cos(0.3))
    assert e.b_mag == pytest.approx(math.sin(0.3))
    assert e.unitarity_defect < 1e-15


def test_resonance_constant_drive_probability():
    # constant resonant drive: omega_z = 0, |omega| = 1, phi = 0
    prof = make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 1.0, "phi_dot0": 0.0}))
    for t in (0.0, 0.4, math.pi / 2, 2.0):
        e = resonance_entries(prof, t)
        assert e.b_mag ** 2 == pytest.approx(math.sin(t) ** 2, abs=1e-14)
    assert resonance_entries(prof, math.pi / 2).b_mag ** 2 == pytest.approx(
        1.0, abs=1e-14)


def test_resonance_sech_matches_tanh_squared():
    prof = make_scenario("sech_resonant")
    ts = np.linspace(0.0, 6.0, 301)
    a, b = resonance_series(prof, ts)
    assert np.max(np.abs(np.abs(b) ** 2 - np.tanh(ts) ** 2)) < 1e-14


def test_resonance_frozen_entries_sech():
    e = resonance_entries(make_scenario("sech_resonant"), 2.0)
    assert e.a == pytest.approx(SECH_T2_A, abs=1e-9)
    assert e.b == pytest.approx(SECH_T2_B, abs=1e-9)


def test_resonance_frozen_entries_exp():
    prof = make_scenario(
        ScenarioParams("exp_resonant", {"alpha": 3.0 * math.pi}))
    e = resonance_entries(prof, 3.0 * math.pi)
    assert e.a == pytest.approx(EXP_A3PI_GT1_A, abs=1e-9)
    assert e.b == pytest.approx(EXP_A3PI_GT1_B, abs=1e-9)


def test_resonance_rejects_detuned_profile():
    prof = make_scenario("rabi")
    with pytest.raises(InconsistentProfileError):
        resonance_entries(prof, 1.0)
    with pytest.raises(InconsistentProfileError):
        resonance_series(prof, np.linspace(0.0, 1.0, 5))


def test_resonance_asymptote_values():
    assert resonance_asymptote(4.5 * math.pi) == pytest.approx(1.0, abs=1e-12)
    assert resonance_asymptote(3.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert resonance_asymptote(math.pi / 6) == pytest.approx(0.25, abs=1e-12)


def test_modulated_probability_formula_and_domain():
    taus = np.linspace(0.0, 7.0, 29)
    got = modulated_probability(1.0, 0.5, 4, taus)
    expected = np.sin(taus + 0.125 * np.sin(4.0 * taus)) ** 2
    assert np.max(np.abs(got - expected)) < 1e-15
    assert modulated_probability(2.0, 0.0, 3, 1.1) == pytest.approx(
        math.sin(2.2) ** 2, abs=1e-15)
    assert modulated_probability(1.0, 1.0, 10, 0.0) == 0.0
    with pytest.raises(ConfigError):
        modulated_probability(1.0, 1.0, 2.5, 1.0)
    with pytest.raises(ConfigError):
        modulated_probability(1.0, 1.0, 0, 1.0)
    with pytest.raises(ConfigError):
        modulated_probability(1.0, -0.2, 3, 1.0)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 0.5, 3), "C"), ((math.inf, 0.5, 3), "C"),
    ((1.0, math.nan, 3), "k"), ((1.0, 0.5, True), "n")])
def test_modulated_probability_takes_finite_real_numbers(args, name):
    # each once returned nan or passed as a number
    with pytest.raises(ConfigError, match=f"^parameter '{name}' must be a "
                       "finite number$"):
        modulated_probability(*args, 1.0)
    assert modulated_probability(1.0, 0.5, np.int64(3), 1.0) == \
        modulated_probability(1.0, 0.5, 3, 1.0)


def test_beta0_probability_law():
    beta0 = 2.0
    prof = make_scenario(ScenarioParams("constant_beta0", {"beta0": beta0}))
    ts = np.linspace(0.0, 12.0, 241)
    a, b = beta0_series(prof, beta0, ts)
    stretch = math.sqrt(1.0 + beta0 ** 2)
    law = np.sin(stretch * ts) ** 2 / (1.0 + beta0 ** 2)
    assert np.max(np.abs(np.abs(b) ** 2 - law)) < 1e-14
    assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) < 1e-14


def test_beta0_frozen_entries():
    prof = make_scenario(ScenarioParams("constant_beta0", {"beta0": 0.5}))
    e = beta0_entries(prof, 0.5, 2.0)
    assert e.a == pytest.approx(BETA05_T2_A, abs=1e-9)
    assert e.b == pytest.approx(BETA05_T2_B, abs=1e-9)


def test_beta0_zero_reduces_to_resonance():
    prof = make_scenario("sech_resonant")
    e0 = beta0_entries(prof, 0.0, 2.0)
    er = resonance_entries(prof, 2.0)
    assert e0.a == pytest.approx(er.a, abs=1e-15)
    assert e0.b == pytest.approx(er.b, abs=1e-15)


def test_beta0_rejects_mismatched_ratio():
    prof = make_scenario(ScenarioParams("constant_beta0", {"beta0": 1.0}))
    with pytest.raises(InconsistentProfileError):
        beta0_entries(prof, 0.5, 2.0)
    with pytest.raises(InconsistentProfileError):
        beta0_series(prof, 0.5, np.linspace(0.0, 2.0, 9))


def test_case1_detuning_shape():
    assert case1_detuning_ratio(0.0) == pytest.approx(2.0 * math.sqrt(2.0))
    # closed-form integral differentiates back to the ratio
    taus = np.linspace(0.1, 6.0, 25)
    h = 1e-6
    deriv = (case1_detuning_integral(taus + h)
             - case1_detuning_integral(taus - h)) / (2.0 * h)
    assert np.max(np.abs(deriv - case1_detuning_ratio(taus))) < 1e-8
    assert case1_detuning_integral(0.0) == 0.0


def test_case1_half_flip_point():
    # 4 tau^2 = 3 makes the flip probability exactly 1/4
    tau = math.sqrt(3.0) / 2.0
    prof = make_scenario("case1")
    e = case1_entries(prof.omega_mag, prof.phi_omega, tau, tau=tau)
    assert e.b_mag ** 2 == pytest.approx(0.25, abs=1e-12)
    assert e.a_mag ** 2 == pytest.approx(0.75, abs=1e-12)


def test_case1_saturation_and_deficit():
    prof = make_scenario("case1")
    ts = np.linspace(0.0, 50.0, 201)
    a, b = case1_series(prof, ts)
    deficit = 0.5 - np.abs(b) ** 2
    assert np.max(np.abs(deficit - case1_probability_deficit(ts))) < 1e-12
    assert abs(deficit[-1] - 0.5 / math.sqrt(1.0 + 4.0 * 50.0 ** 2)) < 1e-12


def test_case1_frozen_entries():
    prof = make_scenario("case1")
    a, b = case1_series(prof, np.array([3.0]))
    assert complex(a[0]) == pytest.approx(CASE1_T3_A, abs=1e-9)
    assert complex(b[0]) == pytest.approx(CASE1_T3_B, abs=1e-9)


def test_case1_series_rejects_wrong_profile():
    with pytest.raises(InconsistentProfileError):
        case1_series(make_scenario("case2"), np.linspace(0.0, 3.0, 7))


def test_closed_forms_check_the_lab_fields_not_a_stated_detuning():
    # a replaced Omega leaves the catalog's stated detuning stale; checked
    # against that, the check would pass a profile that is not resonant
    prof = make_scenario("sech_resonant")
    stale = dataclasses.replace(
        prof, omega_z=lambda t: np.full_like(np.asarray(t, dtype=float), -4.7))
    with pytest.raises(InconsistentProfileError):
        resonance_series(stale, np.linspace(0.0, 6.0, 7))
    for family in ("case1", "case2"):
        prof = make_scenario(ScenarioParams(family, split_fraction=0.4))
        stale = dataclasses.replace(prof, omega_z=prof.detuning)
        with pytest.raises(InconsistentProfileError):
            (case1_series if family == "case1" else case2_series)(
                stale, np.linspace(0.0, 3.0, 7))


def test_elliptic_phase_frozen_values():
    for tau, ref in ELLIPTIC_REF.items():
        assert elliptic_phase(tau) == pytest.approx(ref, abs=1e-10)
    assert elliptic_phase(0.0) == 0.0
    with pytest.raises(ConfigError):
        elliptic_phase(-1.0)
    # a NaN once raised NumericError from the quadrature
    with pytest.raises(ConfigError, match="^parameter 'tau' must be a "
                       "finite number$"):
        elliptic_phase(math.nan)


@pytest.mark.parametrize("entries", [case1_entries, case2_entries])
def test_area_entries_share_the_tau_and_finiteness_rules(entries):
    # case2 once returned entries for tau < 0, and a tau that overflows the
    # phases failed as a unitarity ConfigError, not as a numeric failure
    prof = make_scenario("case2")
    with pytest.raises(ConfigError, match="^parameter 'tau' must be >= 0$"):
        entries(prof.omega_mag, prof.phi_omega, 1.0, tau=-1.0)
    with pytest.raises(NumericError):  # case1's r_int quadrature fails
        entries(prof.omega_mag, prof.phi_omega, 1.0, tau=1e200)


def test_case2_detuning_shape():
    assert case2_detuning_ratio(0.0) == pytest.approx(math.sqrt(2.0))
    assert case2_detuning_ratio(1.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(3.0)))
    taus = np.linspace(0.1, 6.0, 25)
    h = 1e-6
    deriv = (case2_detuning_integral(taus + h)
             - case2_detuning_integral(taus - h)) / (2.0 * h)
    assert np.max(np.abs(deriv - case2_detuning_ratio(taus))) < 1e-8


def test_case2_inversion_law():
    prof = make_scenario("case2")
    ts = np.linspace(0.0, 20.0, 201)
    a, b = case2_series(prof, ts)
    law = ts ** 2 / (1.0 + ts ** 2)
    assert np.max(np.abs(np.abs(b) ** 2 - law)) < 1e-14
    e = case2_entries(prof.omega_mag, prof.phi_omega, 1.0, tau=1.0)
    assert e.b_mag ** 2 == pytest.approx(0.5, abs=1e-14)


def test_case2_frozen_entries_full_phase_split():
    prof = make_scenario(ScenarioParams("case2", split_fraction=1.0))
    a, b = case2_series(prof, np.array([4.0]))
    assert complex(a[0]) == pytest.approx(CASE2F1_T4_A, abs=1e-9)
    assert complex(b[0]) == pytest.approx(CASE2F1_T4_B, abs=1e-9)


def test_case2_series_rejects_wrong_profile():
    with pytest.raises(InconsistentProfileError):
        case2_series(make_scenario("case1"), np.linspace(0.0, 3.0, 7))


@pytest.mark.parametrize("ratio, textbook", [
    (case1_detuning_ratio, lambda t: 4.0 * (1.0 + t ** 2)
     / ((1.0 + 4.0 * t ** 2) * np.sqrt(2.0 + 4.0 * t ** 2))),
    (case2_detuning_ratio, lambda t: (2.0 + (1.0 - t ** 2) * (2.0 + t ** 2))
     / (2.0 * (1.0 + t ** 2) * np.sqrt(2.0 + t ** 2))),
])
def test_detuning_ratios_match_the_textbook_expressions(ratio, textbook):
    # the ratios reuse tau^2 and three arrays; the value is the expression's
    # bit for bit, a float on scalars and 0-d arrays, an array of the
    # input's shape otherwise
    taus = np.concatenate([np.linspace(0.0, 60.0, 4001),
                           [1e-300, 1e-8, 1e8, 1e154, 1e200, -0.5, -3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert ratio(taus).tobytes() == textbook(taus).tobytes()
        for tau in (0.0, 0.7, 2, -3.0, 1e200, math.inf):
            for arg in (tau, np.asarray(tau)):
                out = ratio(arg)
                assert type(out) is float
                assert np.array_equal(out, float(textbook(np.asarray(
                    tau, dtype=float))), equal_nan=True)
    grid = taus[:12].reshape(3, 4)
    assert ratio(grid).shape == (3, 4)
    assert ratio(grid).tobytes() == textbook(grid).tobytes()
