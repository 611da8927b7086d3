"""Coupled-mode layer against analytic transfer laws and a frozen reference.

The frozen endpoint amplitudes were computed by integrating the raw coupled
amplitude equations (not the mapped two-level form) with an independent
high-order adaptive integrator at relative tolerance 1e-12.
"""

import math
import sys

import numpy as np
import pytest

from genrabi import propagator
from genrabi.errors import ConfigError
from genrabi.fields import is_generalized_resonant
from genrabi.modes import (
    COUPLING_FAMILIES,
    CouplingSpec,
    ModeState,
    coupling_from_config,
    detilde,
    propagate_modes,
    tilde,
    to_su2_profile,
)
from genrabi.propagator import PropagatorConfig, suggested_step

# k(z) = sech(z), delta = 0.8, initial (A, B) = (1, 0), read out at z = 3
SECH_D08_Z3_A = 0.3455830552092476 + 0.4444825885226542j
SECH_D08_Z3_B = -0.6394686828686494 - 0.5235335558326186j


def constant_spec(k0, delta, phase=0.0):
    value = complex(k0 * math.cos(phase), k0 * math.sin(phase))
    return CouplingSpec(k_ab=lambda z: value, delta=delta,
                        label=f"constant(k0={k0:g})")


def sech_spec(delta):
    return CouplingSpec(k_ab=lambda z: 1.0 / math.cosh(z), delta=delta,
                        label="sech(k0=1)")


def test_detilde_identity_at_zero_mismatch():
    state = detilde((0.3 + 0.4j, 0.5 - 0.1j), 2.0, 0.0)
    assert state.amp_a == 0.3 + 0.4j
    assert state.amp_b == 0.5 - 0.1j


def test_detilde_preserves_moduli_and_round_trips():
    pair = (0.3 + 0.4j, 0.5 - 0.1j)
    state = detilde(pair, 1.7, 0.9)
    assert abs(state.amp_a) == pytest.approx(abs(pair[0]), abs=1e-15)
    assert abs(state.amp_b) == pytest.approx(abs(pair[1]), abs=1e-15)
    back = tilde(state, 0.9)
    assert back[0] == pytest.approx(pair[0], abs=1e-15)
    assert back[1] == pytest.approx(pair[1], abs=1e-15)
    # accepts a ModeState as input too
    again = detilde(ModeState(*pair, z=1.7), 1.7, 0.9)
    assert again.amp_a == pytest.approx(state.amp_a, abs=1e-15)
    assert again.amp_b == pytest.approx(state.amp_b, abs=1e-15)


def test_su2_mapping_of_constant_coupling():
    prof = to_su2_profile(constant_spec(2.0, 1.2))
    grid = np.linspace(0.0, 3.0, 31)
    assert np.max(np.abs(prof.omega_z(grid) + 0.6)) == 0.0
    assert np.max(np.abs(prof.omega_mag(grid) - 2.0)) < 1e-15
    # off-diagonal entry is i k, so a real coupling sits at phase pi/2
    assert np.max(np.abs(prof.phi_omega(grid) - math.pi / 2.0)) < 1e-12
    assert prof.phi_omega(1.0) == pytest.approx(math.pi / 2.0)
    # zero mismatch makes the mapped profile generalized-resonant
    assert is_generalized_resonant(to_su2_profile(constant_spec(2.0, 0.0)),
                                   3.0, tol=1e-8)


def test_matched_constant_coupling_fully_transfers():
    k0 = 2.0
    out = propagate_modes(constant_spec(k0, 0.0), (1.0, 0.0),
                          math.pi / (2.0 * k0))
    assert out.power_b[-1] == pytest.approx(1.0, abs=1e-6)
    assert out.power_a[-1] == pytest.approx(0.0, abs=1e-6)
    assert np.max(np.abs(out.total_power - 1.0)) < 1e-10
    # for the bare (1, 0) launch the transfer equals the mapped flip curve
    assert np.max(np.abs(out.power_b - out.base.p_flip)) < 1e-14
    # a full beat returns the power
    beat = propagate_modes(constant_spec(k0, 0.0), (1.0, 0.0), math.pi / k0)
    assert beat.power_b[-1] == pytest.approx(0.0, abs=1e-5)


def test_mismatch_caps_the_transfer():
    # delta = 2 k0 caps the transferred power at 1/2 and doubles the beat rate
    k0 = 1.0
    z_max = math.pi / math.sqrt(2.0)
    out = propagate_modes(constant_spec(k0, 2.0), (1.0, 0.0), z_max,
                          config=PropagatorConfig(step=5e-4, samples=2001))
    law = np.sin(math.sqrt(2.0) * out.z) ** 2 / 2.0
    assert np.max(np.abs(out.power_b - law)) < 1e-6
    assert np.max(out.power_b) == pytest.approx(0.5, abs=1e-6)


def test_sech_coupling_asymptote():
    out = propagate_modes(sech_spec(0.0), (1.0, 0.0), 6.0)
    assert np.max(np.abs(out.power_b - np.tanh(out.z) ** 2)) < 1e-6
    assert out.power_b[-1] >= 0.9999


def test_frozen_mismatched_sech_endpoint():
    config = PropagatorConfig(scheme="commutator_free_4th", step=1e-3,
                              samples=301)
    out = propagate_modes(sech_spec(0.8), (1.0, 0.0), 3.0, config=config)
    assert complex(out.amp_a[-1]) == pytest.approx(SECH_D08_Z3_A, abs=1e-9)
    assert complex(out.amp_b[-1]) == pytest.approx(SECH_D08_Z3_B, abs=1e-9)
    assert np.max(np.abs(out.total_power - 1.0)) < 1e-12


def test_uncoupled_modes_hold_their_amplitudes():
    out = propagate_modes(constant_spec(0.0, 1.5), (0.6, 0.8), 4.0,
                          config=PropagatorConfig(step=5e-3, samples=101))
    assert np.max(np.abs(out.amp_a - 0.6)) < 1e-12
    assert np.max(np.abs(out.amp_b - 0.8)) < 1e-12


def test_input_power_is_normalized_and_recorded():
    out = propagate_modes(constant_spec(1.0, 0.0), (2.0, 0.0), 0.5,
                          config=PropagatorConfig(step=1e-3, samples=11))
    assert out.power_scale == pytest.approx(4.0)
    assert out.total_power[0] == pytest.approx(1.0, abs=1e-15)


def test_initial_state_validation():
    spec = constant_spec(1.0, 0.0)
    with pytest.raises(ConfigError):
        propagate_modes(spec, ModeState(1.0, 0.0, z=1.0), 2.0)
    with pytest.raises(ConfigError):
        propagate_modes(spec, (0.0, 0.0), 2.0)


@pytest.mark.parametrize("initial", [
    (1e200, 0.0), (float("nan"), 0.0), (0.0, complex(0.0, float("inf")))],
    ids=["square_overflows", "nan", "inf"])
def test_non_finite_initial_power_is_a_config_error(initial):
    # each once ran: 1e200 raised OverflowError, nan and inf gave NaN amplitudes
    with pytest.raises(ConfigError, match="initial power must be finite"):
        propagate_modes(constant_spec(1.0, 0.0), initial, 1.0)


def test_a_wrong_stated_phase_is_a_config_error():
    # a stated phase sends the coupling to the resonance frame, which drops
    # any part of k off that phase: a k that leaves it is refused
    for k, phase in ((lambda z: 1.0 - z, 0.0),  # changes sign at z = 1
                     (lambda z: np.exp(0.1j * z), 0.0),  # turns
                     (lambda z: complex(1.0, 1e-9), 0.0),
                     (lambda z: 1.0 + 0.0 * z, math.nan)):
        with pytest.raises(ConfigError, match="stated phase"):
            propagate_modes(CouplingSpec(k_ab=k, delta=0.0, phase=phase),
                            (1.0, 0.0), 2.0)
    # compared on the unit circle: -pi and pi are one phase, and a zero k
    # lies on every ray
    for phase in (-math.pi, math.pi, 3.0 * math.pi):
        out = propagate_modes(CouplingSpec(
            k_ab=lambda z: np.minimum(z - 1.0, 0.0), delta=0.0, phase=phase),
            (1.0, 0.0), 2.0)
        assert out.base.phi_omega[0] == pytest.approx(-math.pi / 2.0)


def _table_profile(tmp_path, text):
    path = tmp_path / "k.csv"
    path.write_text(text)
    return to_su2_profile(coupling_from_config(
        {"delta": 0.3, "coupling": {"family": "custom_table",
                                    "params": {"path": str(path)}}}),
        window=2.0)


def test_couplings_of_one_constant_phase_run_in_the_frame(tmp_path):
    def catalog(family, params):
        return to_su2_profile(coupling_from_config(
            {"delta": 0.3, "coupling": {"family": family, "params": params}}),
            window=2.0)

    framed = [catalog("constant", {"k0": 1.2, "phase": -2.0}),
              catalog("sech", {"k0": 1.0}),
              _table_profile(tmp_path, "z,re_k\n0,0.5\n1,0\n2,1.5\n"),
              _table_profile(tmp_path, "0,-0.5\n1,-1\n2,0\n"),
              _table_profile(tmp_path, "0,1,-1\n1,0,0\n2,3,-3\n")]
    for prof in framed:
        assert prof.phi_omega_dot is not None, prof.label
        assert prof.detuning(np.zeros(1))[0] == -0.15
    lab = [_table_profile(tmp_path, "0,1\n2,-1\n"),  # changes sign
           _table_profile(tmp_path, "0,1,0\n2,1,1\n"),  # off one ray
           to_su2_profile(CouplingSpec(k_ab=lambda z: 1.0 + 0 * z,
                                       delta=0.3))]
    for prof in lab:
        assert prof.phi_omega_dot is None, prof.label


def test_coupling_config_catalog(tmp_path):
    assert COUPLING_FAMILIES == ("constant", "sech", "custom_table")
    spec = coupling_from_config(
        {"delta": 0.4, "coupling": {"family": "constant",
                                    "params": {"k0": 2.0, "phase": 0.5}}})
    assert spec.delta == 0.4
    assert spec.k_ab(1.0) == pytest.approx(2.0 * np.exp(0.5j))
    sech = coupling_from_config(
        {"delta": 0.0, "coupling": {"family": "sech", "params": {"k0": 3.0}}})
    assert sech.k_ab(0.0) == pytest.approx(3.0)
    assert sech.k_ab(1.0) == pytest.approx(3.0 / math.cosh(3.0))

    table = tmp_path / "k.csv"
    table.write_text("z,re_k,im_k\n0.0,1.0,0.0\n1.0,0.5,0.25\n2.0,0.0,0.5\n")
    spec = coupling_from_config(
        {"delta": 0.1, "coupling": {"family": "custom_table",
                                    "params": {"path": str(table)}}})
    assert spec.k_ab(0.5) == pytest.approx(0.75 + 0.125j)
    assert spec.k_ab(2.0) == pytest.approx(0.5j)


@pytest.mark.parametrize("cfg,needle", [
    ({}, "delta"),
    ({"delta": "much"}, "delta"),
    ({"delta": 0.0}, "coupling.family"),
    ({"delta": 0.0, "coupling": {"family": "gauss"}}, "gauss"),
    ({"delta": 0.0, "coupling": {"family": "constant", "params": 3}},
     "coupling.params"),
    ({"delta": 0.0, "coupling": {"family": "constant",
                                 "params": {"k0": -1.0}}}, "k0"),
    ({"delta": 0.0, "coupling": {"family": "custom_table", "params": {}}},
     "path"),
    # the drive families' parameter rule: unknown keys are refused
    ({"delta": 0.0, "coupling": {"family": "sech", "params": {"kO": 3.0}}},
     "'kO'"),
    ({"delta": 0.0, "coupling": {"family": "custom_table",
                                 "params": {"path": "k.csv", "k0": 1.0}}},
     "'k0'"),
    # so are unknown fields of the document
    ({"delta": 0.0, "z_max": 3.0, "coupling": {"family": "constant"}},
     "'z_max'"),
    ({"delta": 0.0, "coupling": {"family": "constant", "k0": 1.0}}, "'k0'"),
])
def test_coupling_config_errors(cfg, needle):
    with pytest.raises(ConfigError) as err:
        coupling_from_config(cfg)
    assert needle in str(err.value)


def test_coupling_table_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n0.0,0.5\n")
    with pytest.raises(ConfigError):
        coupling_from_config({"delta": 0.0, "coupling": {
            "family": "custom_table", "params": {"path": str(bad)}}})
    short = tmp_path / "short.csv"
    short.write_text("0.0,1.0\n")
    with pytest.raises(ConfigError):
        coupling_from_config({"delta": 0.0, "coupling": {
            "family": "custom_table", "params": {"path": str(short)}}})


def _sech_builtin(delta):
    return coupling_from_config(
        {"delta": delta, "coupling": {"family": "sech", "params": {"k0": 1.0}}})


def test_coupling_calls_do_not_grow_with_substeps():
    calls = []

    def counted(spec):
        def k_ab(z):
            calls.append(np.size(z))
            return spec.k_ab(z)
        return CouplingSpec(k_ab=k_ab, delta=spec.delta, label=spec.label)

    code = propagator._integrate.__code__

    def sweep_tiles(frame, event, arg):
        # the sweep's tiles, read from its locals as it returns
        if event == "return" and frame.f_code is code:
            tiles.append(frame.f_locals.get("tiles"))

    spec = counted(_sech_builtin(0.5))
    counts, tiles = [], []
    # 40,000 substeps span several tiles of the sweep
    for substeps in (1_000, 10_000, 40_000):
        calls.clear()
        outer = sys.getprofile()
        sys.setprofile(sweep_tiles)
        try:
            propagate_modes(spec, (1.0, 0.0), 6.0, config=PropagatorConfig(
                step=6.0 / substeps, samples=101))
        finally:
            sys.setprofile(outer)
        counts.append(len(calls))
    # without the stated phase the drive runs in the lab frame, where the
    # sweep calls k_ab for |omega| and phi once per tile; the scale probe
    # and the trajectory's columns make the same calls at every run size
    assert None not in tiles, "_integrate has no local 'tiles'"
    tiles = [len(t) for t in tiles]
    rest = counts[0] - 2 * tiles[0]
    assert tiles[0] == tiles[1] == 1 < tiles[2]
    assert 0 < rest and counts == [rest + 2 * n for n in tiles]
    assert max(counts) <= 30
    # at suggested_step, as genrabi modes runs it: about 5,000 substeps
    calls.clear()
    out = propagate_modes(spec, (1.0, 0.0), 6.0)
    assert round(6.0 / out.base.step) >= 4_000
    assert len(calls) <= 30


def test_automatic_step_costs_no_extra_coupling_calls():
    # the propagator picks the step from the scale probe it takes anyway
    calls = []
    base = _sech_builtin(0.5)
    spec = CouplingSpec(k_ab=lambda z: calls.append(z) or base.k_ab(z),
                        delta=0.5)
    auto = propagate_modes(spec, (1.0, 0.0), 6.0)
    n_auto = len(calls)
    step = suggested_step(to_su2_profile(spec, window=6.0), 6.0)
    calls.clear()
    explicit = propagate_modes(spec, (1.0, 0.0), 6.0,
                               PropagatorConfig(step=step))
    assert n_auto <= len(calls)
    assert np.array_equal(auto.amp_a, explicit.amp_a)
    assert np.array_equal(auto.amp_b, explicit.amp_b)


def test_scalar_only_coupling_is_called_per_point_with_the_same_result():
    config = PropagatorConfig(step=2e-3, samples=51)
    builtin_spec = _sech_builtin(0.5)
    # the built-in's callable without its phase runs in the lab frame
    array = propagate_modes(CouplingSpec(k_ab=builtin_spec.k_ab, delta=0.5),
                            (1.0, 0.0), 3.0, config)
    # float(z) raises TypeError on an array: one call per point, the same
    # numpy cosh per point as the array-native callable
    scalar = propagate_modes(
        CouplingSpec(k_ab=lambda z: 1.0 / np.cosh(float(z)), delta=0.5),
        (1.0, 0.0), 3.0, config)
    assert np.array_equal(scalar.amp_a, array.amp_a)
    assert np.array_equal(scalar.amp_b, array.amp_b)
    # the built-in runs in the resonance frame, which rounds differently;
    # math.cosh differs from numpy's cosh in the last bit at some points
    builtin = propagate_modes(builtin_spec, (1.0, 0.0), 3.0, config)
    mathcosh = propagate_modes(sech_spec(0.5), (1.0, 0.0), 3.0, config)
    for other in (builtin, mathcosh):
        assert np.max(np.abs(other.amp_a - array.amp_a)) <= 1e-13
        assert np.max(np.abs(other.amp_b - array.amp_b)) <= 1e-13


def test_constant_returning_coupling_is_broadcast():
    k0 = 1.3
    prof = to_su2_profile(CouplingSpec(k_ab=lambda z: complex(k0), delta=0.2))
    grid = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(prof.omega_mag(grid), np.full(7, k0))
    assert np.array_equal(prof.phi_omega(grid), np.full(7, math.pi / 2.0))
    config = PropagatorConfig(step=1e-3, samples=21)
    lam = propagate_modes(constant_spec(k0, 0.2), (1.0, 0.0), 2.0, config)
    builtin_spec = coupling_from_config(
        {"delta": 0.2, "coupling": {"family": "constant",
                                    "params": {"k0": k0}}})
    # the built-in's callable without its phase runs in the lab frame
    array = propagate_modes(CouplingSpec(k_ab=builtin_spec.k_ab, delta=0.2),
                            (1.0, 0.0), 2.0, config)
    assert np.array_equal(lam.amp_a, array.amp_a)
    assert np.array_equal(lam.amp_b, array.amp_b)
    # the built-in itself runs in the resonance frame
    builtin = propagate_modes(builtin_spec, (1.0, 0.0), 2.0, config)
    assert np.max(np.abs(builtin.amp_a - array.amp_a)) <= 1e-13
    assert np.max(np.abs(builtin.amp_b - array.amp_b)) <= 1e-13


def test_sign_changing_coupling_propagates():
    # k = 1 - z vanishes at z = 1, the middle probe of [0, 2], where the
    # phase of i k jumps by pi inside the 5-point stencil; the sweep only
    # ever sees the smooth i k, and profile_scale leaves that rate out
    out = propagate_modes(CouplingSpec(k_ab=lambda z: 1.0 - z, delta=0.0),
                          (1.0, 0.0), 2.0)
    # real k at zero mismatch: P_B = sin^2 of the area z - z^2/2
    assert np.max(np.abs(out.power_b - np.sin(out.z - out.z ** 2 / 2) ** 2)) \
        <= 1e-6


def test_coupling_that_starts_next_to_zero_propagates():
    # |k(0)| = 1.2e-7 while the phase of k turns by pi/2 within about 1e-6:
    # a real phase rate at the first probe that the sweep does not need
    out = propagate_modes(CouplingSpec(
        k_ab=lambda z: 0.5 * z + 1.2e-7j * (1.0 - 0.5 * z), delta=0.0),
        (1.0, 0.0), 2.0)
    assert np.max(np.abs(out.total_power - 1.0)) <= 1e-10
    assert np.max(np.abs(out.power_b - np.sin(out.z ** 2 / 4) ** 2)) <= 1e-6
