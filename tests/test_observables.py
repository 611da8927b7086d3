import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genrabi.closed_forms import EvolutionEntries, case2_entries, resonance_series
from genrabi.errors import ConfigError
from genrabi.observables import pauli_series
from genrabi.scenarios import ScenarioParams, make_scenario

angles = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def entries_from_angles(mix, phase_a, phase_b):
    a = math.cos(mix) * complex(math.cos(phase_a), math.sin(phase_a))
    b = math.sin(mix) * complex(math.cos(phase_b), math.sin(phase_b))
    return EvolutionEntries(a=a, b=b, t=0.0)


def test_identity_entries():
    e = EvolutionEntries(a=1.0 + 0.0j, b=0.0j, t=0.0)
    assert e.b_mag ** 2 == 0.0
    sx, sy, sz = pauli_series(e.a, e.b, "+")
    assert sz == 1.0
    assert pauli_series(e.a, e.b, "-")[2] == -1.0
    assert sx == 0.0
    assert sy == 0.0


def test_known_probabilities():
    prof = make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 1.0, "phi_dot0": 0.0}))
    a, b = resonance_series(prof, np.array([math.pi / 2.0]))
    assert abs(b[-1]) ** 2 == pytest.approx(1.0, abs=1e-14)
    assert pauli_series(a, b)[2][-1] == pytest.approx(-1.0, abs=1e-14)
    half = case2_entries(prof.omega_mag, prof.phi_omega, 1.0, tau=1.0)
    assert half.b_mag ** 2 == pytest.approx(0.5, abs=1e-14)


def test_invalid_initial_is_named():
    # it follows the package's one name rule
    with pytest.raises(ConfigError, match="^unknown initial 'up'; choose "
                       r"from \+, -$"):
        pauli_series(1.0 + 0.0j, 0.0j, "up")
    with pytest.raises(ConfigError):
        pauli_series(np.ones(3, dtype=complex), np.zeros(3, dtype=complex),
                     "0")


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
        got = pauli_series(e.a, e.b, initial)
        for value, want in zip(got, expect):
            assert value == pytest.approx(want, abs=1e-10)


@given(mix=angles, phase_a=angles, phase_b=angles)
def test_bloch_vector_is_unit_and_probabilities_sum(mix, phase_a, phase_b):
    e = entries_from_angles(mix, phase_a, phase_b)
    sx, sy, sz = pauli_series(e.a, e.b)
    assert sx * sx + sy * sy + sz * sz == pytest.approx(1.0, abs=1e-10)
    # flip and survival probabilities are complementary
    p_flip = e.b_mag ** 2
    assert p_flip + abs(e.a) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert -1.0 - 1e-12 <= sz <= 1.0 + 1e-12


def test_transverse_expectations_depend_on_phase_realization():
    # two resonant drives with the same |omega| but different phase rates
    # share the flip probability yet differ in the transverse projections
    fast = make_scenario("sech_resonant")
    slow = make_scenario(ScenarioParams("sech_resonant", {"phi_dot0": 4.0}))
    ts = np.linspace(0.0, 4.0, 41)
    af, bf = resonance_series(fast, ts)
    as_, bs = resonance_series(slow, ts)
    assert np.max(np.abs(np.abs(bf) ** 2 - np.abs(bs) ** 2)) < 1e-14
    sxf = pauli_series(af, bf)[0]
    sxs = pauli_series(as_, bs)[0]
    assert np.max(np.abs(sxf - sxs)) > 0.5
