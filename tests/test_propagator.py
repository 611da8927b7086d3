import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from genrabi import propagator
from genrabi.closed_forms import case2_series
from genrabi.errors import (ConfigError, NumericError, StepResolutionError,
                            UnitarityDriftError)
from genrabi.fields import FieldProfile, PhysicalField, to_profile
from genrabi.modes import CouplingSpec, propagate_modes
from genrabi.propagator import (
    SCHEMES,
    PropagatorConfig,
    Trajectory,
    propagate,
    richardson_check,
    suggested_step,
)
from genrabi.scenarios import (FAMILIES, ScenarioParams, closed_form_series,
                               default_window, make_scenario,
                               scenario_time_scale)


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


def wobbly_profile():
    # bounded, with every Hamiltonian entry moving: max |Omega| + |omega|
    # stays below 2.2, so a substep of 0.02 resolves it anywhere
    return FieldProfile(
        omega_z=lambda t: 0.7 * np.cos(3.0 * np.asarray(t, dtype=float)),
        omega_mag=lambda t: 1.0 + 0.5 * np.sin(2.0 * np.asarray(t, float)),
        phi_omega=lambda t: np.sin(np.asarray(t, dtype=float)),
        phi_omega_dot=lambda t: np.cos(np.asarray(t, dtype=float)),
        label="wobbly")


def reference_integrate(profile, t_max, samples, substeps, scheme):
    # the scalar accumulation loop the lane sweep replaced, with its own
    # complex Hamiltonian [[om, ow], [conj(ow), -om]] and Euler-form step
    # factors: one complex update of the first column (a, c) of U per step
    # exponential
    _, nodes, rows = propagator._SCHEMES[scheme]
    h = t_max / (samples - 1) / substeps
    base = np.arange((samples - 1) * substeps) * h
    phase = profile.phi_omega or np.zeros_like  # a real drive has none
    hams = [(np.asarray(profile.omega_z(base + x * h), dtype=float),
             profile.omega_mag(base + x * h)
             * np.exp(1j * np.asarray(phase(base + x * h))))
            for x in nodes]
    factors = []
    for row in rows:
        om = sum(w * om for w, (om, _) in zip(row, hams))
        ow = sum(w * ow for w, (_, ow) in zip(row, hams))
        energy = np.hypot(om, np.abs(ow))
        sinc = np.where(energy > 0.0, np.sin(energy * h)
                        / np.where(energy > 0.0, energy, 1.0), h)
        factors.append((np.cos(energy * h) - 1j * om * sinc,
                        -1j * ow * sinc))
    a, c = 1.0 + 0.0j, 0.0j
    a_out, b_out = [a], [0.0j]
    for k in range(base.size):
        for alpha, beta in factors:
            f, g = complex(alpha[k]), complex(beta[k])
            a, c = f * a + g * c, -g.conjugate() * a + f.conjugate() * c
        if (k + 1) % substeps == 0:
            a_out.append(a)
            b_out.append(-c.conjugate())
    return np.array(a_out), np.array(b_out)


def _drift(a, b):
    return float(np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)))


def check_accumulation(samples, substeps, scheme, profile=None):
    # the lane sweep against the scalar loop at substep 0.02: entries within
    # 1e-12, drift within 2x of the loop's plus eps (4 + sqrt(N)): the loop's
    # drift over N exponentials can happen to be 0, while a random walk of N
    # roundings, and the drift's own evaluation, reach that size
    t_max = 0.02 * (samples - 1) * substeps
    rows = propagator._SCHEMES[scheme][2]
    exponentials = (samples - 1) * substeps * len(rows)
    profile = profile or wobbly_profile()
    a, b = propagator._integrate(profile, t_max, samples, substeps, scheme)
    ref_a, ref_b = reference_integrate(profile, t_max, samples, substeps,
                                       scheme)
    assert a.shape == b.shape == (samples,)
    assert np.max(np.abs(a - ref_a)) <= 1e-12
    assert np.max(np.abs(b - ref_b)) <= 1e-12
    assert _drift(a, b) <= 2.0 * _drift(ref_a, ref_b) \
        + np.finfo(float).eps * (4.0 + math.sqrt(exponentials))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("samples, substeps", [
    (2, 400),     # one interval: its lanes alone make the product
    (11, 997),    # several lanes per interval, the last padded
    (2001, 1),    # one exponential (or two) per interval
    (2, 40000),   # one long interval: several tiles across all its lanes
    (3, 20011),   # long intervals whose padded last lanes share tiles
    (101, 300),   # many short intervals, the last tile partial
    (41, 997),    # padded last lanes among many intervals
    (20001, 1),   # 20,000 lanes, more than a tile holds: tiles of some lanes
    (16501, 3),   # 16,500 lanes of three positions: each lane's product
                  # carries over from one position tile to the next
])
def test_lane_sweep_matches_the_scalar_loop(samples, substeps, scheme):
    check_accumulation(samples, substeps, scheme)
    if (samples, substeps) == (16501, 3):
        _, (lanes, run, depth, cols) = sweep_geometry(samples, substeps,
                                                      scheme)
        assert cols < lanes and -(-run // depth) == 3


@pytest.mark.parametrize("scheme", SCHEMES)
@given(samples=st.integers(2, 30), substeps=st.integers(1, 100))
def test_lane_sweep_matches_the_scalar_loop_on_any_grid(scheme, samples,
                                                         substeps):
    check_accumulation(samples, substeps, scheme)


def frame_drive(omega_z):
    # a resonance-frame (real) drive: Delta = omega_z, |omega| moving
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return propagator._in_frame(FieldProfile(
        omega_z=omega_z, phi_omega=zero, phi_omega_dot=zero, label="frame",
        omega_mag=lambda t: 1.0 + 0.5 * np.sin(2.0 * np.asarray(t, float))))


def sweep_exit(run):
    # run() and, from _integrate's locals as it returns or raises, whether
    # the run ended on one axis and whether any lane summed rotation vectors
    code = propagator._integrate.__code__
    seen = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is code:
            seen.append((frame.f_locals["shared"],
                         bool(np.any(frame.f_locals["sums"]))))

    outer = sys.getprofile()
    sys.setprofile(watch)
    try:
        run()
    finally:
        sys.setprofile(outer)
        assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("samples, substeps", [(2, 400), (11, 997),
                                               (2001, 1), (16501, 1)])
def test_real_drive_sweep_matches_the_scalar_loop(samples, substeps, scheme):
    # the frame's drive, resonant (Delta = 0) and constant (Delta = 0.7,
    # |omega| = 1.2): every exponential turns about one axis, so each lane
    # holds the sum of its rotation vectors, and each sample takes one
    # exponential of their running sum over the lanes, compensated: a plain
    # running sum missed the loop by 1.24e-12 and 1.38e-12 at (16501, 1).
    # The loop's own round-off grows linearly over identical factors: on
    # the constant drive it reached 1.3e-12 over the 8e4 CF4 exponentials
    # of (41, 997), while the sweep stays at round-off
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    resonant = frame_drive(zero)
    constant = propagator._in_frame(FieldProfile(
        omega_z=lambda t: np.full_like(np.asarray(t, dtype=float), 0.7),
        omega_mag=lambda t: np.full_like(np.asarray(t, dtype=float), 1.2),
        phi_omega=zero, phi_omega_dot=zero, label="constant"))
    for profile in (resonant, constant):
        assert sweep_exit(lambda: check_accumulation(
            samples, substeps, scheme, profile)) == (True, True)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("samples, substeps, where", [
    (2, 60000, "inside a tile"),     # lane 1, mid second tile row
    (2, 60000, "at a tile edge"),    # lane 1, first position of that row
    (16501, 3, "before later lanes"),  # tile (1, 0), lanes past it unvisited
])
def test_axis_that_breaks_partway_matches_the_scalar_loop(samples, substeps,
                                                          where, scheme):
    # Delta is 0 except in one substep, which leaves the axis: the tiles
    # before it sum, and its tile turns every lane's sum, the lanes past
    # the tile in its row included, into a product for the chain by one
    # exponential per lane
    _, (lanes, run, depth, cols) = sweep_geometry(samples, substeps,
                                                  scheme)
    if where == "before later lanes":
        assert cols < lanes and depth == 1
        first = 3 * 5 + 1  # lane 5, position 1
    else:
        assert run >= 2 * depth
        first = run + depth + (depth // 2 if where == "inside a tile" else 0)
    h = 0.02
    profile = frame_drive(lambda t: np.where(
        np.abs(np.asarray(t, dtype=float) - (first + 0.5) * h) < 0.5 * h,
        0.4, 0.0))
    assert sweep_exit(lambda: check_accumulation(
        samples, substeps, scheme, profile)) == (False, True)


@pytest.mark.parametrize("scheme", SCHEMES)
@given(samples=st.integers(2, 30), substeps=st.integers(1, 100),
       switch=st.floats(0.0, 1.5))
def test_real_drive_sweep_matches_the_scalar_loop_on_any_grid(
        scheme, samples, substeps, switch):
    # Delta switches from 0 to 0.4 at a fraction switch of the window, or
    # never (switch >= 1)
    t_switch = switch * 0.02 * (samples - 1) * substeps
    profile = frame_drive(lambda t: np.where(
        np.asarray(t, dtype=float) >= t_switch, 0.4, 0.0))
    check_accumulation(samples, substeps, scheme, profile)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("turning", [False, True])
def test_lab_frame_sweep_sums_only_on_a_shared_axis(turning, scheme):
    # a lab-frame (complex) drive with Omega = 0 and |omega| = 1: at phi =
    # 0.4 every rotation vector lies on one axis, with a y component, and
    # the lanes sum them; at phi = 0.4 + 0.3 t they all lie in the xy plane
    # but on no one axis, which only the z component of the cross product
    # sees
    t_of = lambda t: np.asarray(t, dtype=float)
    profile = FieldProfile(
        omega_z=lambda t: np.zeros_like(t_of(t)),
        omega_mag=lambda t: np.ones_like(t_of(t)),
        phi_omega=lambda t: 0.4 + (0.3 if turning else 0.0) * t_of(t),
        label="lab")
    assert sweep_exit(lambda: check_accumulation(
        11, 997, scheme, profile)) == (not turning, not turning)


def sweep_geometry(samples, substeps, scheme="midpoint_exponential"):
    # Python lines run in _integrate's own frame, and the lane count, the
    # substeps per lane and a tile's positions and lanes, read from the
    # frame's locals as it returns
    code = propagator._integrate.__code__
    lines = 0
    geometry = []

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        if event == "return":
            geometry.append(dict(frame.f_locals))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    t_max = 0.02 * (samples - 1) * substeps
    outer = sys.gettrace()
    sys.settrace(calls)
    try:
        propagator._integrate(wobbly_profile(), t_max, samples, substeps,
                              scheme)
    finally:
        sys.settrace(outer)
    [v] = geometry
    names = ("lanes", "run", "depth", "cols")
    for name in names:  # a renamed local fails here, by name
        assert name in v, f"_integrate has no local {name!r}"
    return lines, tuple(v[name] for name in names)


def count_sweep_lines(samples, substeps):
    # the lines the sweep runs, and a bound from its geometry
    lines, (lanes, width, depth, cols) = sweep_geometry(samples, substeps)
    count = -(-width // depth) * -(-lanes // cols)  # tiles of the run
    # the lane loop runs once per exponential of a lane and the fold about
    # 2 sqrt(lanes) times, at most 3 lines each; the factor pass and the
    # tile's lane products run at most 50 lines per tile, the rest of the
    # sweep about 250
    return lines, 3 * (width + 2 * math.isqrt(lanes) + 4) + 50 * count + 250


def test_accumulation_makes_no_python_loop_per_substep():
    # a loop over the 200,000 exponentials would run at least one line each
    lines, bound = count_sweep_lines(11, 20000)
    assert 0 < lines <= bound


def test_fold_makes_no_python_loop_per_lane():
    # one lane per interval: a scalar fold would run a line per each of the
    # 20,000 lanes
    lines, bound = count_sweep_lines(20001, 1)
    assert 0 < lines <= bound


def sweep_peak(substeps, scheme, profile=None):
    # tracemalloc peak of _integrate, 11 samples over [0, 10], on
    # exp_resonant in the lab frame unless a profile is given
    profile = profile or make_scenario("exp_resonant")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        propagator._integrate(profile, 10.0, 11, substeps, scheme)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("drive, scheme, bound", [
    ("lab", "midpoint_exponential", 16.0),
    ("lab", "commutator_free_4th", 26.0),
    ("frame", "midpoint_exponential", 15.0),
    ("frame", "commutator_free_4th", 24.0)])
def test_sweep_peak_memory_per_substep(drive, scheme, bound):
    # the drive is evaluated one tile at a time and each tile's factors go
    # into the lane products before the next tile is built: at 2e5
    # substeps about 12.7 (midpoint) and 21.0 (CF4) bytes per substep on
    # exp_resonant in the lab frame, 12.0 and 19.0 on case1 in the
    # resonance frame. Drive blocks of about 2^16 cells across every lane
    # peaked at about 26.3 and 42.1 (lab) and 25.6 and 38.2 (frame),
    # building every factor as a full array at about 130 and 220, writing
    # the tiles into run-sized factor arrays at about 62 and 119, and
    # holding the whole run's drive at about 48 and 80
    profile = propagator._in_frame(make_scenario("case1")) \
        if drive == "frame" else None
    assert sweep_peak(20000, scheme, profile) / (10 * 20000) <= bound


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sweep_peak_memory_does_not_grow_with_the_run(scheme):
    # 6e5 substeps against 2e5: holding the whole run's drive tripled the
    # peak; tiles of the drive keep it flat
    assert sweep_peak(60000, scheme) <= 1.2 * sweep_peak(20000, scheme)


@pytest.mark.parametrize("scheme, bound", [
    ("midpoint_exponential", 31.4), ("commutator_free_4th", 44.6)])
def test_off_axis_sweep_peak_memory_per_substep(scheme, bound):
    # case1 in the resonance frame leaves the shared axis in its first tile,
    # so every tile runs the lane chain; the chain's buffers are allocated
    # once with the sweep's scratch. 31.4 and 44.6 B/substep were measured
    # with a chain that made fresh arrays at every position
    profile = propagator._in_frame(make_scenario("case1"))
    assert sweep_peak(20000, scheme, profile) / (10 * 20000) <= bound


@pytest.mark.parametrize("scheme", SCHEMES)
def test_off_axis_sweep_peak_memory_does_not_grow_with_the_run(scheme):
    profile = propagator._in_frame(make_scenario("case1"))
    assert sweep_peak(60000, scheme, profile) \
        <= 1.2 * sweep_peak(20000, scheme, profile)


@pytest.mark.parametrize("scheme, measured", [
    ("midpoint_exponential", 3.6e-13), ("commutator_free_4th", 1.6e-13)])
def test_long_run_drift_stays_at_the_lane_products(scheme, measured):
    # a rotating field over 5e5 substeps, within 4x of the drift measured
    # with lanes of about sqrt(total) exponentials, multiplied in order.
    # Lanes of 32 positions drifted 2.7e-12 (midpoint) and 2.1e-12 (CF4)
    # here, and drift grows with the lane count
    field = PhysicalField(b_x=lambda t: np.cos(7.0 * t),
                          b_y=lambda t: -np.sin(7.0 * t),
                          b_z=lambda t: -3.5 + 0.3 * np.sin(t), mu0_g=2.0)
    traj = propagate(to_profile(field),
                     PropagatorConfig(scheme=scheme, step=2e-5, samples=11),
                     10.0)
    assert traj.unitarity_drift <= 4.0 * measured


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", ["rabi", "constant_beta0"])
def test_long_constant_runs_stay_unitary(family, scheme):
    # 4.0M midpoint substeps over t_max = 3000: multiplied one by one, the
    # identical factors rounded alike in every lane and in the fold, and
    # the drift reached 1.7e-10, past the bound; summed along their shared
    # axis, with one exponential per lane and the fold, it was 3.2e-13, and
    # with one exponential per sample of the running sum it is 6.7e-16
    prof = make_scenario(family)
    traj = propagate(prof, PropagatorConfig(scheme=scheme), 3000.0)
    assert traj.unitarity_drift <= 1e-12
    a, b = closed_form_series(ScenarioParams(family), prof, traj.t)
    assert np.max(np.abs(traj.a - a)) <= 1e-10
    assert np.max(np.abs(traj.b - b)) <= 1e-10


def test_shared_axis_run_stays_at_round_off():
    # rabi over 2^22 midpoint substeps in one interval: U is one
    # exponential of the compensated running sum of the lanes' rotation
    # vectors, so only that exponential rounds. One exponential per lane
    # and the lane fold drifted 1.4e-13 here
    t_max = 4.0 * math.pi
    traj = propagate(make_scenario("rabi"),
                     PropagatorConfig(step=t_max / 2 ** 22, samples=2), t_max)
    assert t_max / traj.step == 2 ** 22
    assert traj.unitarity_drift <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("scheme", SCHEMES)
def test_long_lab_frame_constant_runs_stay_unitary(scheme):
    # a constant coupling and a constant transverse field over t = 3000 run
    # in the lab frame (no analytic phase rate); their rotation vectors
    # share one axis, so the lanes sum them. Multiplied one by one, the
    # midpoint factors drifted 1.7e-10 and raised UnitarityDriftError
    config = PropagatorConfig(scheme=scheme)
    modes = propagate_modes(
        CouplingSpec(k_ab=lambda z: 1.0 + 0 * np.asarray(z), delta=0.0),
        (1.0, 0.0), 3000.0, config)
    assert np.max(np.abs(modes.total_power - 1.0)) <= 1e-12
    field = PhysicalField(b_x=lambda t: 0 * t + 1.0, b_y=lambda t: 0 * t,
                          b_z=lambda t: 0 * t, mu0_g=2.0)
    traj = propagate(to_profile(field), config, 3000.0)
    assert traj.unitarity_drift <= 1e-12
    assert np.max(np.abs(traj.a - np.cos(traj.t))) <= 1e-10
    assert np.max(np.abs(np.abs(traj.b) - np.abs(np.sin(traj.t)))) <= 1e-10


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
@pytest.mark.parametrize("family", FAMILIES)
def test_automatic_step_is_the_suggested_step(family, scheme):
    # step=None integrates exactly as an explicit suggested_step does; a
    # tenth of the default window keeps the slowest family fast
    prof = make_scenario(family)
    t_max = 0.1 * default_window(family)[0] / scenario_time_scale(family)
    auto = propagate(prof, PropagatorConfig(scheme=scheme, samples=11), t_max)
    explicit = propagate(prof, PropagatorConfig(
        scheme=scheme, step=suggested_step(prof, t_max, scheme), samples=11),
        t_max)
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
    u = rng.normal(size=(3, 64))
    f = np.empty(64, dtype=complex)
    g = np.empty_like(f)
    assert propagator._rotation_factors(*u, f, g, np.empty((2, 64)))
    # the operator [[f, g], [-conj(g), conj(f)]] has determinant
    # |f|^2 + |g|^2
    assert np.max(np.abs(np.abs(f) ** 2 + np.abs(g) ** 2 - 1.0)) < 1e-14
    # and is exp(i u.sigma)
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for k in range(8):
        exact = scipy.linalg.expm(1j * np.einsum("i,ijk->jk", u[:, k], sigma))
        assert abs(exact[0, 0] - f[k]) < 1e-14
        assert abs(exact[0, 1] - g[k]) < 1e-14
    # zero rotations (a zero Hamiltonian) give the identity exactly
    assert propagator._rotation_factors(*np.zeros((3, 3)), f[:3], g[:3],
                                        np.empty((2, 3)))
    assert np.all(f[:3] == 1.0) and np.all(g[:3] == 0.0)
    u[1, 5] = np.nan
    assert not propagator._rotation_factors(*u, f, g, np.empty((2, 64)))


def test_small_rotation_factors_match_expm(monkeypatch):
    # every |u|^2 at most _SMALL takes the Taylor polynomials, within 1e-15
    # of expm on |u| up to 0.1 (|u|^2 exactly at the bound included, and
    # u = 0, the exact identity), with uy None or given; one angle above
    # the bound sends the whole call down the trig path, still expm's
    horner, taylor = propagator._horner, []

    def spy(*args):
        taylor.append(args[2])
        horner(*args)

    monkeypatch.setattr(propagator, "_horner", spy)
    rng = np.random.default_rng(11)
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    n = 200
    u = rng.normal(size=(3, n))
    u *= rng.uniform(0.0, 0.1, n) / np.linalg.norm(u, axis=0)
    u[:, 0] = 0.0
    u[:, 1] = (0.1, 0.0, 0.0)  # |u|^2 == 0.1 ** 2 == _SMALL exactly
    u[:, 2] = (0.0, -0.1, 0.0)
    u[:, 3] = (0.06, 0.0, 0.08)
    assert np.max(np.sum(u * u, axis=0)) == propagator._SMALL
    # each series lists the least |u|^2 at which a term reaches _LEFT_OUT,
    # and the first term it leaves out stays below _LEFT_OUT up to _SMALL
    for i, series in enumerate((propagator._COS, propagator._SINC)):
        for k, (need, c) in enumerate(series[1:], 1):
            assert need ** k * abs(c) == pytest.approx(propagator._LEFT_OUT)
        k = len(series)
        assert propagator._SMALL ** k / math.factorial(2 * k + i) \
            < propagator._LEFT_OUT
    for planar in (False, True):
        v = u * [[1.0], [0.0 if planar else 1.0], [1.0]]
        for big in (False, True):
            w = v.copy()
            if big:  # |u|^2 = 0.0100120
                w[:, 7] = (0.08, 0.0, 0.0601)
            assert (np.max(np.sum(w * w, axis=0)) > propagator._SMALL) == big
            f = np.empty(n, dtype=complex)
            g = np.empty_like(f)
            taylor.clear()
            assert propagator._rotation_factors(
                w[0], None if planar else w[1], w[2], f, g, np.empty((2, n)))
            assert bool(taylor) != big
            exact = [scipy.linalg.expm(1j * np.einsum("i,ijk->jk", w[:, k],
                                                      sigma))
                     for k in range(n)]
            assert max(abs(e[0, 0] - f[k]) for k, e in enumerate(exact)) \
                <= 1e-15
            assert max(abs(e[0, 1] - g[k]) for k, e in enumerate(exact)) \
                <= 1e-15
            if not big:
                assert f[0] == 1.0 and g[0] == 0.0


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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_narrow_pulse_between_scale_probes_is_a_resolution_failure(scheme):
    # a Gaussian pi pulse (area pi/2, so the exact p_flip is 1) of width
    # 2e-4 centred between two of the 257 scale probes on [0, 1]: the probe
    # reads almost 0 and the default config once returned a wrong p_flip
    # (0.10 midpoint, 0.95 CF4) without raising; the sweep nodes see it
    sigma, centre = 2e-4, 0.5 + 0.5 / 256
    peak = 0.5 * math.pi / (sigma * math.sqrt(2.0 * math.pi))
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    pulse = FieldProfile(
        omega_z=zero, phi_omega=zero, phi_omega_dot=zero, label="pulse",
        omega_mag=lambda t: peak * np.exp(
            -0.5 * ((np.asarray(t, dtype=float) - centre) / sigma) ** 2))
    with pytest.raises(StepResolutionError,
                       match="over the sweep nodes") as failure:
        propagate(pulse, PropagatorConfig(scheme=scheme), 1.0)
    # the advice comes from the pulse's peak, not from the flank the nodes
    # saw (once "use step <= 2.078e-04" for midpoint, which raised again),
    # so following it once resolves the pulse
    advice = float(re.search(r"use step <= (\S+)$", str(failure.value))[1])
    assert advice == pytest.approx(0.05 / peak, rel=1e-3)
    # a step that resolves the pulse passes and flips the spin
    for step in (advice, 2e-5):
        traj = propagate(pulse, PropagatorConfig(scheme=scheme, step=step), 1.0)
        assert traj.p_flip[-1] == pytest.approx(1.0, abs=1e-12)


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


def test_non_finite_drive_outranks_an_earlier_unresolved_pulse():
    # a run of more than two tiles with a narrow pulse the step cannot
    # resolve at t ~ 0.1 and a NaN |omega| at t ~ 0.9, both between the scale
    # probes: every tile is checked for finiteness before the resolution
    # failure
    sigma, pulse, spike = 1e-4, 0.1 + 0.5 / 256, 0.9 + 0.5 / 256
    peak = 0.5 * math.pi / (sigma * math.sqrt(2.0 * math.pi))
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))

    def profile(nan):
        def omega_mag(t):
            t = np.asarray(t, dtype=float)
            mag = peak * np.exp(-0.5 * ((t - pulse) / sigma) ** 2)
            return np.where(nan & (np.abs(t - spike) < 1e-4), np.nan, mag)
        return FieldProfile(omega_z=zero, omega_mag=omega_mag, phi_omega=zero,
                            phi_omega_dot=zero, label="pulse")

    config = PropagatorConfig(step=2e-5, samples=11)
    assert 1.0 / config.step > 2 * propagator._BLOCK
    with pytest.raises(NumericError, match=r"substep from t=0\.9018"):
        propagate(profile(True), config, 1.0)
    with pytest.raises(StepResolutionError, match="over the sweep nodes"):
        propagate(profile(False), config, 1.0)


def test_non_finite_drive_names_the_earliest_substep_of_the_run():
    # step 2e-5 on [0, 1] with 11 samples: 230 lanes of 218 positions, tiles
    # of 71 positions; NaN spikes between the scale probes at substep 100
    # (lane 0, position 100, the second tile) and substep 228 (lane 1,
    # position 10, the first tile): the earlier substep is named although a
    # later tile holds it
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    h = 2e-5
    spikes = np.array([[100.5 * h], [228.5 * h]])

    def omega_mag(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.any(np.abs(t - spikes) < 0.5 * h, axis=0),
                        np.nan, 1.0)

    profile = FieldProfile(omega_z=zero, omega_mag=omega_mag, phi_omega=zero,
                           phi_omega_dot=zero, label="two spikes")
    with pytest.raises(NumericError, match=r"substep from t=0\.002$"):
        propagate(profile, PropagatorConfig(step=h, samples=11), 1.0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_profile_callables_see_the_times_in_order(scheme):
    # the sweep lays the run out in lanes, but each callable gets one 1-d
    # array of non-decreasing times, so a phase unwrapped along its samples
    # (fields.drive_phase) stays continuous
    grids = []

    def seen(fn):
        def call(t):
            grids.append(np.array(t))
            return fn(t)
        return call

    base = wobbly_profile()
    profile = FieldProfile(omega_z=seen(base.omega_z),
                           omega_mag=seen(base.omega_mag),
                           phi_omega=seen(base.phi_omega),
                           phi_omega_dot=base.phi_omega_dot, label="seen")
    propagator._integrate(profile, 40.0, 3, 1000, scheme)
    nodes = len(propagator._SCHEMES[scheme][1])
    assert len(grids) == 3 * nodes
    for t in grids:
        assert t.ndim == 1 and t.size >= 2000
        assert np.all(np.diff(t) >= 0.0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_non_finite_drive_names_the_earliest_substep_across_blocks(scheme):
    # one interval of 4e5 substeps in several tile rows: NaN at lane 0,
    # position run - 30, in a later row, and at the later substep of lane 1,
    # position 5, in the first row, whose tile fails first; the earlier
    # substep is named, so the scan covers the rest of the run
    _, (lanes, run, depth, _) = sweep_geometry(2, 400000, scheme)
    assert (run - 30) // depth > 0 and lanes > 1
    h = 1.0 / 400000
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    spikes = np.array([[run - 29.5], [run + 5.5]]) * h

    def omega_mag(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.any(np.abs(t - spikes) < 0.5 * h, axis=0),
                        np.nan, 1.0)

    profile = FieldProfile(omega_z=zero, omega_mag=omega_mag, phi_omega=zero,
                           phi_omega_dot=zero, label="two spikes")
    with pytest.raises(NumericError, match=re.escape(
            f"substep from t={(run - 30) * h:g}") + "$"):
        propagator._integrate(profile, 1.0, 2, 400000, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("on_axis", [True, False])
def test_non_finite_real_drive_names_its_first_substep(scheme, on_axis):
    # Omega is NaN from t0 on, inside the last lane past its first tile
    # row, so the tiles before the one that holds t0 sum along one axis
    # (Delta = 0) or run the chain (Delta turns); only the real drive's two
    # evaluated components are checked, and the substep named starts
    # within one substep of t0
    _, (lanes, run, depth, _) = sweep_geometry(2, 250000, scheme)
    h = 1e-3
    t0 = ((lanes - 1) * run + depth + 5.3) * h
    assert t0 < 250.0
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    before = zero if on_axis else lambda t: 0.3 * np.cos(t)
    profile = FieldProfile(
        omega_z=lambda t: np.where(np.asarray(t) < t0, before(t), np.nan),
        omega_mag=lambda t: 1.0 + 0.5 * np.sin(np.asarray(t, dtype=float)),
        phi_omega=zero, phi_omega_dot=zero, label="nan tail")

    def run():
        with pytest.raises(NumericError) as err:
            propagator._integrate(propagator._in_frame(profile), 250.0, 2,
                                  250000, scheme)
        t = float(re.search(r"substep from t=(\S+)$", str(err.value))[1])
        assert abs(t - t0) <= h

    assert sweep_exit(run) == (False, on_axis)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_profile_callables_are_called_once_per_node_and_block(scheme):
    # each callable is called once per Gauss node per tile of the sweep,
    # each time with one 1-d array of non-decreasing times that no tile
    # outgrows: 2e5 substeps in several tile rows, and 20,000 lanes of one
    # position, more than one tile holds
    grids = []

    def seen(fn):
        def call(t):
            grids.append(np.array(t))
            return fn(t)
        return call

    base = wobbly_profile()
    profile = FieldProfile(omega_z=seen(base.omega_z),
                           omega_mag=seen(base.omega_mag),
                           phi_omega=seen(base.phi_omega),
                           phi_omega_dot=base.phi_omega_dot, label="seen")
    nodes = len(propagator._SCHEMES[scheme][1])
    for samples, substeps in ((3, 100000), (20001, 1)):
        _, (lanes, run, depth, cols) = sweep_geometry(samples, substeps,
                                                      scheme)
        tiles = -(-run // depth) * -(-lanes // cols)
        assert tiles > 1
        grids.clear()
        propagator._integrate(profile, 0.02 * (samples - 1) * substeps,
                              samples, substeps, scheme)
        assert len(grids) == 3 * nodes * tiles
        for t in grids:
            assert t.ndim == 1 and 2 <= t.size <= propagator._BLOCK
            assert np.all(np.diff(t) >= 0.0)


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
    # in the lab frame (phi_omega_dot stripped) the scale is phi_dot0 = 10
    lab = dataclasses.replace(prof, phi_omega_dot=None)
    assert suggested_step(lab, 6.0) == pytest.approx(0.0015 / 10.0)
    # one error target: (step * scale)^order stays at 0.0015^2
    assert suggested_step(lab, 6.0) \
        == suggested_step(lab, 6.0, "midpoint_exponential")
    assert suggested_step(lab, 6.0, "commutator_free_4th") \
        == pytest.approx(math.sqrt(0.0015) / 10.0)
    # in the resonance frame the detuning is 0, so the scale is max |omega|
    # = omega_mag0 = 1, above the slew sqrt(max |omega'|) ~ sqrt(1/2)
    assert suggested_step(prof, 6.0) == pytest.approx(0.0015)
    assert suggested_step(prof, 6.0, "commutator_free_4th") \
        == pytest.approx(math.sqrt(0.0015))
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    silent = FieldProfile(omega_z=zero, omega_mag=zero, phi_omega=zero,
                          phi_omega_dot=zero, label="silent")
    assert suggested_step(silent, 5.0) == pytest.approx(0.05)
    gentle = make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 1e-6, "phi_dot0": 0.0}))
    assert suggested_step(gentle, 10.0) == pytest.approx(1.0)


def test_profile_scale_is_probed_once_per_profile_and_window():
    # a benchmark job calls suggested_step, propagate and richardson_check
    # on one profile object and window: the 257 probes are evaluated once,
    # and a new object, though equal, is probed again, as is a new window
    t_max = 2.0
    base = make_scenario("sech_resonant")
    probes = []

    def omega_mag(t):
        probes.append(np.shape(t) == (257,) and np.array_equal(
            t, np.linspace(0.0, t[-1], 257)))
        return base.omega_mag(t)

    prof = dataclasses.replace(base, omega_mag=omega_mag)
    config = PropagatorConfig(step=suggested_step(prof, t_max), samples=11)
    propagate(prof, config, t_max)
    richardson_check(prof, config, t_max)
    assert sum(probes) == 1
    again = dataclasses.replace(prof)
    assert again == prof and again is not prof
    assert suggested_step(again, t_max) == config.step
    assert sum(probes) == 2
    suggested_step(again, 0.5 * t_max)
    assert sum(probes) == 3


def test_profile_scale_sees_how_fast_the_drive_changes():
    # in the frame the detuning of modulated_resonant is 0 and max |omega|
    # is 0.5, but |omega| = 0.25 (1 + cos 11 t) changes at up to 2.75; the
    # square root of its largest change per probe spacing sets the scale
    prof = make_scenario(ScenarioParams("modulated_resonant", {
        "C": 0.25, "k": 1.0, "n": 11, "phi_dot0": 1.0}))
    assert propagator.profile_scale(prof, 4.0 * math.pi) \
        == pytest.approx(math.sqrt(2.75), rel=1e-2)


def test_a_wrong_analytic_phase_rate_is_a_config_error():
    # the frame reads phi_omega_dot, which the lab frame never did: one 1%
    # off would give a silently wrong answer, so every entry point checks
    # it against the stencil of phi_omega first
    prof = make_scenario("sech_resonant")
    wrong = dataclasses.replace(
        prof, phi_omega_dot=lambda t: 1.01 * prof.phi_omega_dot(t))
    config = PropagatorConfig(step=0.01, samples=11)
    for run in (lambda: suggested_step(wrong, 6.0),
                lambda: propagate(wrong, PropagatorConfig(), 6.0),
                lambda: richardson_check(wrong, config, 6.0)):
        with pytest.raises(ConfigError, match=r"phi_omega_dot 10\.1 at t=0 "
                           r"is not the derivative of phi_omega"):
            run()
    # the stencil's round-off, about 2e-11 |phi|, passes at |phi| = 4,000;
    # the frame's scale is |detuning| + |omega| = 10 + 0.01
    fast = make_scenario(ScenarioParams("rabi", {
        "omega_z0": 0.0, "omega_mag0": 0.01, "phi_dot0": 20.0}))
    assert suggested_step(fast, 200.0) == pytest.approx(0.0015 / 10.01)


def test_a_wrong_stated_detuning_is_a_config_error():
    # the frame integrates a stated detuning in place of Omega +
    # phi_omega_dot/2, so every entry point checks it against the two first
    config = PropagatorConfig(step=0.01, samples=11)
    for family, split in (("case2", 0.4), ("sech_resonant", 0.0)):
        prof = make_scenario(ScenarioParams(family, split_fraction=split))
        wrong = dataclasses.replace(
            prof, detuning=lambda t, p=prof: 1.01 * p.detuning(t) + 1e-6)
        for run in (lambda: suggested_step(wrong, 6.0),
                    lambda: propagate(wrong, PropagatorConfig(), 6.0),
                    lambda: richardson_check(wrong, config, 6.0)):
            with pytest.raises(ConfigError, match=r"detuning .* at t=0 is "
                               r"not Omega \+ phi_omega_dot/2"):
                run()


def _frame_profile(phi=None, rate=None, omega_z=None, stated=None):
    # a resonant unit drive in the frame, one of its functions replaced
    zero = lambda t: 0 * np.asarray(t, dtype=float)
    return FieldProfile(omega_z=omega_z or zero,
                        omega_mag=lambda t: 1 + zero(t),
                        phi_omega=phi or zero, phi_omega_dot=rate or zero,
                        detuning=stated)


def test_a_nan_phase_between_the_probes_is_a_numeric_failure():
    # the frame's sweep never reads phi_omega, and the map back once gave a
    # NaN entry whose NaN drift passed the drift bound
    ts = np.linspace(0.0, 1.0, 11)
    profile = _frame_profile(phi=lambda t: np.where(t == ts[3], np.nan, 0 * t))
    with pytest.raises(NumericError, match=r"^entries for profile 'custom' "
                       r"are not finite at t=0\.3$"):
        propagate(profile, PropagatorConfig(samples=11), 1.0)


def test_a_non_finite_phase_or_detuning_at_the_probes_is_a_numeric_failure():
    # each once passed the probe checks, which a NaN compares false against
    late = lambda t: np.where(np.asarray(t) > 0.5, np.nan, 0 * t)
    for profile in (_frame_profile(phi=late),
                    _frame_profile(rate=late, stated=lambda t: 0 * t),
                    _frame_profile(omega_z=late, stated=lambda t: 0 * t)):
        with pytest.raises(NumericError, match="no finite phase or detuning "
                           r"near t=0\.5"):
            propagate(profile, PropagatorConfig(samples=11), 1.0)


@pytest.mark.parametrize("family, bound", [("sech_resonant", 1e-7),
                                           ("exp_resonant", 1e-8)])
def test_a_carrier_past_the_stencil_step_runs_in_the_frame(family, bound):
    # phi_dot0 = 1e6 turns the phase by 10 rad per DIFF_STEP; the unwrapped
    # stencil aliased that to -2.6e5 and refused the profile (ConfigError)
    params = ScenarioParams(family, {"phi_dot0": 1e6})
    prof = make_scenario(params)
    for scheme in SCHEMES:
        traj = propagate(prof, PropagatorConfig(scheme=scheme, samples=3), 2.0)
        a, b = closed_form_series(params, prof, traj.t)
        assert np.max(np.abs(traj.a - a)) <= bound
        assert np.max(np.abs(traj.b - b)) <= bound


@pytest.mark.xfail(strict=True, reason="the lab-frame phase stencil aliases "
                   "a carrier past pi / DIFF_STEP (ROADMAP item 2)")
def test_a_lab_frame_carrier_past_the_stencil_step_is_resolved_or_refused():
    # one turn per DIFF_STEP: the unwrapped stencil reads a rate of about 0,
    # so the run takes step 1e-4 against a turn every 1e-5 and returns
    # P = 1.0e-6 without an error
    w = 2.0 * math.pi / 1e-5
    field = PhysicalField(b_x=lambda t: np.cos(w * t),
                          b_y=lambda t: -np.sin(w * t),
                          b_z=lambda t: np.zeros_like(t), mu0_g=2.0)
    try:
        traj = propagate(to_profile(field), PropagatorConfig(samples=3), 1e-3)
    except (ConfigError, NumericError):
        return
    # the frame rotating with the drive sees |omega| = 1 and detuning w/2
    g = 1.0 + w * w / 4.0
    exact = np.sin(np.sqrt(g) * traj.t) ** 2 / g
    assert np.max(np.abs(traj.p_flip - exact)) <= 1e-9


@pytest.mark.xfail(strict=True, reason="a feature narrower than the probe "
                   "spacing t_max/256 and the node spacing is never seen "
                   "(ROADMAP item 16)")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_pulse_narrower_than_the_node_spacing_is_resolved_or_refused(
        scheme):
    # a resonant Gaussian of area pi/4 (exact P = 1/2) and width 1e-4 falls
    # between every probe and node: at step 0.1 the run returns P(10) = 0
    # (CF4 1.9e-127) without an error, and transverse_area_series reads
    # tau(10) = 0.0
    width, centre, area = 1e-4, 3.77713, math.pi / 4.0
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    peak = area / (width * math.sqrt(2.0 * math.pi))
    prof = FieldProfile(
        omega_z=zero, phi_omega=zero, phi_omega_dot=zero,
        omega_mag=lambda t: peak * np.exp(
            -0.5 * ((np.asarray(t, dtype=float) - centre) / width) ** 2))
    try:
        traj = propagate(prof, PropagatorConfig(scheme=scheme, samples=11),
                         10.0)
    except (ConfigError, NumericError):
        return
    swept = np.array([0.5 * area * (1.0 + math.erf(
        (t - centre) / (width * math.sqrt(2.0)))) for t in traj.t])
    assert np.max(np.abs(traj.p_flip - np.sin(swept) ** 2)) <= 1e-6


def test_effective_substep_never_exceeds_configured_step():
    prof = constant_drive()
    traj = propagate(prof, PropagatorConfig(step=0.3, samples=11), 1.0)
    assert traj.step == pytest.approx(0.1)  # one substep per interval
    traj2 = propagate(prof, PropagatorConfig(step=0.04, samples=11), 1.0)
    assert traj2.step == pytest.approx(0.1 / 3.0)
    assert traj2.step <= 0.04 + 1e-15
