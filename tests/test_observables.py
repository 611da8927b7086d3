import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genrabi.closed_forms import EvolutionEntries, case2_entries, resonance_entries
from genrabi.errors import ConfigError
from genrabi.observables import (
    pauli_series,
    sigma_xy_expectation,
    sigma_z_expectation,
    transition_probability,
)
from genrabi.scenarios import ScenarioParams, make_scenario

angles = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def entries_from_angles(mix, phase_a, phase_b):
    a = math.cos(mix) * complex(math.cos(phase_a), math.sin(phase_a))
    b = math.sin(mix) * complex(math.cos(phase_b), math.sin(phase_b))
    return EvolutionEntries(a=a, b=b, t=0.0)


def test_identity_entries():
    e = EvolutionEntries(a=1.0 + 0.0j, b=0.0j, t=0.0)
    assert transition_probability(e) == 0.0
    assert sigma_z_expectation(e, "+") == 1.0
    assert sigma_z_expectation(e, "-") == -1.0
    assert sigma_xy_expectation(e, "x") == 0.0
    assert sigma_xy_expectation(e, "y") == 0.0


def test_known_probabilities():
    prof = make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 1.0, "phi_dot0": 0.0}))
    full = resonance_entries(prof, math.pi / 2.0)
    assert transition_probability(full) == pytest.approx(1.0, abs=1e-14)
    assert sigma_z_expectation(full) == pytest.approx(-1.0, abs=1e-14)
    half = case2_entries(prof.omega_mag, prof.phi_omega, 1.0, tau=1.0)
    assert transition_probability(half) == pytest.approx(0.5, abs=1e-14)


def test_invalid_axis_or_initial():
    # both follow the package's one name rule
    e = EvolutionEntries(a=1.0 + 0.0j, b=0.0j, t=0.0)
    with pytest.raises(ConfigError, match="^unknown axis 'z'; choose from "
                       "x, y$"):
        sigma_xy_expectation(e, "z")
    with pytest.raises(ConfigError, match="^unknown initial 'up'; choose "
                       r"from \+, -$"):
        sigma_z_expectation(e, "up")


@given(mix=angles, phase_a=angles, phase_b=angles)
def test_expectations_match_matrix_oracle(mix, phase_a, phase_b):
    # brute-force oracle: build the state column and contract with the
    # Pauli matrices directly
    e = entries_from_angles(mix, phase_a, phase_b)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    for initial, column in (("+", np.array([e.a, -np.conj(e.b)])),
                            ("-", np.array([e.b, np.conj(e.a)]))):
        expect = [np.vdot(column, m @ column).real for m in (sx, sy, sz)]
        assert sigma_xy_expectation(e, "x", initial) == pytest.approx(
            expect[0], abs=1e-10)
        assert sigma_xy_expectation(e, "y", initial) == pytest.approx(
            expect[1], abs=1e-10)
        assert sigma_z_expectation(e, initial) == pytest.approx(
            expect[2], abs=1e-10)


@given(mix=angles, phase_a=angles, phase_b=angles)
def test_bloch_vector_is_unit_and_probabilities_sum(mix, phase_a, phase_b):
    e = entries_from_angles(mix, phase_a, phase_b)
    sx = sigma_xy_expectation(e, "x")
    sy = sigma_xy_expectation(e, "y")
    sz = sigma_z_expectation(e)
    assert sx * sx + sy * sy + sz * sz == pytest.approx(1.0, abs=1e-10)
    # flip and survival probabilities are complementary
    p_flip = transition_probability(e)
    assert p_flip + abs(e.a) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert -1.0 - 1e-12 <= sz <= 1.0 + 1e-12


def test_pauli_series_matches_scalar_functions():
    rng = np.random.default_rng(3)
    mix = rng.uniform(0.0, math.pi, 17)
    pa = rng.uniform(-math.pi, math.pi, 17)
    pb = rng.uniform(-math.pi, math.pi, 17)
    a = np.cos(mix) * np.exp(1j * pa)
    b = np.sin(mix) * np.exp(1j * pb)
    for initial in ("+", "-"):
        sx, sy, sz = pauli_series(a, b, initial)
        for i in range(mix.size):
            e = EvolutionEntries(a=complex(a[i]), b=complex(b[i]), t=0.0)
            assert sx[i] == pytest.approx(
                sigma_xy_expectation(e, "x", initial), abs=1e-14)
            assert sy[i] == pytest.approx(
                sigma_xy_expectation(e, "y", initial), abs=1e-14)
            assert sz[i] == pytest.approx(
                sigma_z_expectation(e, initial), abs=1e-14)
    with pytest.raises(ConfigError):
        pauli_series(a, b, "0")


def test_transverse_expectations_depend_on_phase_realization():
    # two resonant drives with the same |omega| but different phase rates
    # share the flip probability yet differ in the transverse projections
    from genrabi.closed_forms import resonance_series

    fast = make_scenario("sech_resonant")
    slow = make_scenario(ScenarioParams("sech_resonant", {"phi_dot0": 4.0}))
    ts = np.linspace(0.0, 4.0, 41)
    af, bf = resonance_series(fast, ts)
    as_, bs = resonance_series(slow, ts)
    assert np.max(np.abs(np.abs(bf) ** 2 - np.abs(bs) ** 2)) < 1e-14
    sxf = pauli_series(af, bf)[0]
    sxs = pauli_series(as_, bs)[0]
    assert np.max(np.abs(sxf - sxs)) > 0.5
