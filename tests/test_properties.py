"""Properties over random in-domain parameters and grids.

For every catalog family, the closed form (closed_form_series) and the
general Theta route with the family's own ansatz (default_ansatz) evaluate
the same (Theta, phi_int, r_int) representation, so they must agree, and
both must be unitary. The unitary oracle at suggested_step must stay unitary
under both schemes and, with CF4, track the closed-form flip probability;
CF4 at its own automatic step must track the closed-form entries, and both
schemes at theirs the Rosen-Zener flip probability of a sech pulse and the
exact finite-time Landau-Zener entries; the resonance frame and the lab
frame must give the same entries.
The one-pass phase quadrature of the Theta route must
reproduce closed-form phase integrals on random grids, down to the smallest
tau and within its own quad_tol, and the locked-ratio ansatz is the closed
form's own solution for any beta0. Coupled modes conserve power for random
constant, sech and table couplings, and the launched-mode transfer equals
the mapped flip curve.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from genrabi.closed_forms import (beta0_series, beta0_triple, case1_triple,
                                  case2_detuning_ratio, case2_triple)
from genrabi.errors import ConfigError, NumericError
from genrabi.fields import FieldProfile, transverse_area_series
from genrabi.modes import coupling_from_config, propagate_modes
from genrabi.propagator import (SCHEMES, PropagatorConfig, propagate,
                                richardson_check, suggested_step)
from genrabi.scenarios import (FAMILIES, ScenarioParams, _CATALOG, _build,
                               _exp, _modulated, _sech, closed_form_series,
                               default_ansatz, default_window, make_scenario,
                               scenario_time_scale)
from genrabi.theta import (ThetaAnsatz, ThetaEvaluator, beta0_ansatz,
                           case1_ansatz, case2_ansatz, general_entries_series,
                           verify_ansatz)


def _span(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


# in-domain parameter draws per family; a family added to the catalog
# without an entry here fails the test until it gets one
DOMAINS = {
    "rabi": {"omega_z0": _span(-10.0, 10.0), "omega_mag0": _span(0.01, 10.0),
             "phi_dot0": _span(-20.0, 20.0)},
    "sech_resonant": {"omega_mag0": _span(0.01, 10.0),
                      "phi_dot0": _span(-20.0, 20.0)},
    "exp_resonant": {"omega_mag0": _span(0.01, 10.0), "gamma": _span(0.01, 10.0),
                     "phi_dot0": _span(-20.0, 20.0)},
    "modulated_resonant": {"C": _span(0.01, 5.0), "k": _span(0.0, 1.0),
                           "n": st.integers(min_value=1, max_value=20),
                           "phi_dot0": _span(0.01, 10.0)},
    "constant_beta0": {"beta0": _span(0.0, 10.0), "omega_mag0": _span(0.01, 10.0)},
    "case1": {"omega_mag0": _span(0.01, 10.0)},
    "case2": {"omega_mag0": _span(0.01, 10.0)},
}

WINDOW = 2.0  # on the family's dimensionless axis
SAMPLES = 9


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20)
@given(data=st.data())
def test_closed_form_and_theta_route_agree_and_stay_unitary(family, data):
    values = data.draw(st.fixed_dictionaries(DOMAINS[family]), label="params")
    split = data.draw(_span(0.0, 1.0), label="split_fraction") \
        if _CATALOG[family].split else 0.0
    params = ScenarioParams(family, values, split_fraction=split)
    profile = make_scenario(params)
    ts = np.linspace(0.0, WINDOW / scenario_time_scale(params), SAMPLES)

    a, b = closed_form_series(params, profile, ts)
    a_theta, b_theta = general_entries_series(default_ansatz(params), profile, ts)

    assert max(np.max(np.abs(a - a_theta)), np.max(np.abs(b - b_theta))) <= 5e-9
    for x, y in ((a, b), (a_theta, b_theta)):
        assert np.max(np.abs(np.abs(x) ** 2 + np.abs(y) ** 2 - 1.0)) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10)
@given(data=st.data())
def test_oracle_stays_unitary_and_cf4_tracks_closed_form(family, data):
    values = data.draw(st.fixed_dictionaries(DOMAINS[family]), label="params")
    split = data.draw(_span(0.0, 1.0), label="split_fraction") \
        if _CATALOG[family].split else 0.0
    params = ScenarioParams(family, values, split_fraction=split)
    profile = make_scenario(params)
    t_max = WINDOW / scenario_time_scale(params)
    step = suggested_step(profile, t_max)
    # bounds the cost: the slowest in-domain draws need millions of substeps
    assume(t_max / step <= 2 ** 18)

    ts = np.linspace(0.0, t_max, SAMPLES)
    a, b = closed_form_series(params, profile, ts)
    runs = {scheme: propagate(profile, PropagatorConfig(
        scheme=scheme, step=step, samples=SAMPLES), t_max)
        for scheme in SCHEMES}
    for traj in runs.values():
        assert traj.unitarity_drift <= 1e-10
    p_flip = runs["commutator_free_4th"].p_flip
    assert np.max(np.abs(p_flip - np.abs(b) ** 2)) <= 1e-6
    # CF4 at its own automatic step, 25.8x the midpoint one, still tracks
    # the entries themselves
    auto = propagate(profile, PropagatorConfig(
        scheme="commutator_free_4th", samples=SAMPLES), t_max)
    assert auto.unitarity_drift <= 1e-10
    assert max(np.max(np.abs(auto.a - a)), np.max(np.abs(auto.b - b))) <= 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=12)
@given(w0=_span(0.1, 1.5), d=_span(-1.0, 1.0), width=_span(0.5, 2.0))
def test_oracle_matches_the_rosen_zener_flip_probability(scheme, w0, d,
                                                         width):
    # a reference from outside the paper's classes (Rosen & Zener, Phys.
    # Rev. 40, 502, 1932): |omega| = w0 sech((t - t0) / T) at constant
    # Omega = d and phi = 0 flips the spin with probability
    # sin^2(pi w0 T) sech^2(pi d T) over the whole line; the window [0, 2 t0]
    # at t0 = 40 T leaves out tails of about e^-40
    t0 = 40.0 * width
    profile = FieldProfile(
        omega_z=lambda t: np.full_like(np.asarray(t, dtype=float), d),
        omega_mag=lambda t: w0 / np.cosh((np.asarray(t, dtype=float) - t0)
                                         / width),
        phi_omega=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        phi_omega_dot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        label="rosen_zener")
    traj = propagate(profile, PropagatorConfig(scheme=scheme, samples=201),
                     2.0 * t0)
    exact = (math.sin(math.pi * w0 * width)
             / math.cosh(math.pi * d * width)) ** 2
    assert abs(traj.p_flip[-1] - exact) <= 1e-6


@settings(max_examples=14)
@given(data=st.data())
def test_resonance_frame_matches_the_lab_frame(data):
    # every catalog profile carries an analytic phi_omega_dot, so the oracle
    # integrates it in the frame rotating with phi/2; without it the same
    # profile runs in the lab frame. At a common step 1/32 of the smaller
    # automatic midpoint step the two agree on the entries
    family = data.draw(st.sampled_from(FAMILIES), label="family")
    values = data.draw(st.fixed_dictionaries(DOMAINS[family]), label="params")
    split = data.draw(_span(0.0, 1.0), label="split_fraction") \
        if _CATALOG[family].split else 0.0
    params = ScenarioParams(family, values, split_fraction=split)
    profile = make_scenario(params)
    t_max = WINDOW / scenario_time_scale(params)
    lab = dataclasses.replace(profile, phi_omega_dot=None)
    step = min(suggested_step(p, t_max) for p in (profile, lab)) / 32.0
    assume(t_max / step <= 2 ** 18)
    for scheme in SCHEMES:
        config = PropagatorConfig(scheme=scheme, step=step, samples=SAMPLES)
        frame, plain = (propagate(p, config, t_max) for p in (profile, lab))
        assert max(np.max(np.abs(frame.a - plain.a)),
                   np.max(np.abs(frame.b - plain.b))) <= 1e-9, scheme
    if family == "rabi":
        # a constant Hamiltonian in the frame, integrated exactly
        report = richardson_check(profile, PropagatorConfig(
            step=RICHARDSON_STEP["midpoint_exponential"]
            * suggested_step(profile, t_max),
            samples=RICHARDSON_SAMPLES), t_max)
        assert report.within_tolerance
        assert report.note.startswith("differences at round-off"), report


def _landau_zener_entries(a, g, t0, ts):
    # the exact U(t, 0) of H = [[a (t - t0), g], [g, -a (t - t0)]] (Vitanov
    # & Garraway, Phys. Rev. A 53, 4288, 1996): c1 solves Weber's equation,
    # with the solutions D_nu(+-k (t - t0)), k = sqrt(2a) e^{i pi/4}, nu =
    # -i g^2 / (2a), and c2 = (i c1' - a (t - t0) c1) / g; U = Phi(t)
    # Phi(0)^-1 for the fundamental matrix Phi of those two solutions.
    # Returns (U[0, 0], U[0, 1]) = (a, b) at ts.
    with mpmath.workdps(30):
        k = mpmath.sqrt(2 * a) * mpmath.expjpi(0.25)
        nu = mpmath.mpc(0, -g * g / (2 * a))

        def fundamental(t):
            s = mpmath.mpf(t) - t0
            cols = []
            for sign in (1, -1):
                z = sign * k * s
                d = mpmath.pcfd(nu, z)
                # D_nu'(z) = z D_nu(z) / 2 - D_{nu+1}(z)
                c1_dot = sign * k * (z / 2 * d - mpmath.pcfd(nu + 1, z))
                cols.append((d, (1j * c1_dot - a * s * d) / g))
            return mpmath.matrix([[cols[0][0], cols[1][0]],
                                  [cols[0][1], cols[1][1]]])

        start = fundamental(0.0) ** -1
        entries = [fundamental(t) * start for t in ts]
        return (np.array([complex(u[0, 0]) for u in entries]),
                np.array([complex(u[0, 1]) for u in entries]))


@settings(max_examples=8)
@given(a=_span(0.2, 2.0), g=_span(0.1, 1.5), t0=_span(3.0, 12.0),
       c=_span(-6.0, 6.0))
def test_oracle_matches_the_finite_time_landau_zener_entries(a, g, t0, c):
    # a rotating phase phi = c t with Omega shifted by -c/2 keeps the
    # detuning Omega + phi'/2 = a (t - t0); the frame rotating with phi/2
    # maps the reference back: a <- e^{i phi/2} a, b <- e^{i phi/2} b at
    # phi(0) = 0. Checked on the entries, whose phase carries the midpoint
    # scheme's leading error, not only on |b|^2
    profile = FieldProfile(
        omega_z=lambda t: a * (np.asarray(t, dtype=float) - t0) - 0.5 * c,
        omega_mag=lambda t: np.full_like(np.asarray(t, dtype=float), g),
        phi_omega=lambda t: c * np.asarray(t, dtype=float),
        phi_omega_dot=lambda t: np.full_like(np.asarray(t, dtype=float), c),
        label="landau_zener")
    ts = np.linspace(0.0, 2.0 * t0, SAMPLES)
    ref_a, ref_b = _landau_zener_entries(a, g, t0, ts)
    turn = np.exp(0.5j * c * ts)
    for scheme in SCHEMES:
        traj = propagate(profile, PropagatorConfig(scheme=scheme,
                                                   samples=SAMPLES), 2.0 * t0)
        assert max(np.max(np.abs(traj.a - turn * ref_a)),
                   np.max(np.abs(traj.b - turn * ref_b))) <= 1e-6, scheme


def _generic_beta0_phases(beta0, reach):
    # beta0_ansatz without its closed solution: only Theta remains, so
    # (phi_int, r_int) come from the panel quadrature; below
    # 0.9 pi / sqrt(1 + beta0^2) sin(2 phi_int) stays clear of zero
    generic = ThetaAnsatz(theta=beta0_ansatz(beta0).theta,
                          label="beta0 generic")
    taus = np.linspace(0.0, reach * 0.9 * math.pi / math.hypot(1.0, beta0), 17)
    _, phi, r, _ = ThetaEvaluator(generic).solve(taus)
    _, phi_ref, r_ref = beta0_triple(beta0)(taus)
    assert np.max(np.abs(phi - phi_ref)) <= 1e-9
    assert np.max(np.abs(r - r_ref)) <= 1e-9


@pytest.mark.xfail(strict=True, raises=(AssertionError, NumericError),
                   reason="defect: for 0 < |beta0| below about 1e-6 Theta "
                   "steps from 0 to pi within a width ~|beta0| at E tau = "
                   "pi/2, where sin(2 phi_int) ~ 2|beta0| amplifies the "
                   "round-off of phi_int; the generic route then misses 1e-9 "
                   "or raises, and below ~1e-16 (a step between adjacent "
                   "floats) it misses r_int by pi/2, as the QUADPACK route "
                   "did")
@settings(report_multiple_bugs=False)
@given(beta0=_span(-3.0, 3.0), reach=_span(0.01, 1.0))
def test_generic_quadrature_reproduces_locked_ratio_phases(beta0, reach):
    _generic_beta0_phases(beta0, reach)


@given(beta0=st.one_of(st.just(0.0), _span(-3.0, -1e-4), _span(1e-4, 3.0)),
       reach=_span(0.01, 1.0))
def test_generic_quadrature_reproduces_resolvable_locked_ratio_phases(
        beta0, reach):
    # the property above where double precision resolves Theta's step
    _generic_beta0_phases(beta0, reach)


LOCKED_RATIOS = st.one_of(
    _span(-1e3, 1e3),
    st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e300]))


@given(beta0=LOCKED_RATIOS)
def test_locked_ratio_ansatz_is_the_closed_form_pair(beta0):
    # beta0_ansatz carries beta0_triple with the ratio beta0: it induces
    # beta0 exactly, and its entries are the closed form's bit for bit
    profile = make_scenario(ScenarioParams("rabi", {
        "omega_z0": beta0, "omega_mag0": 1.0, "phi_dot0": 0.0}))
    ts = np.linspace(0.0, WINDOW, SAMPLES)
    ansatz = beta0_ansatz(beta0)
    ratios = ThetaEvaluator(ansatz).solve(
        transverse_area_series(profile, ts))[3]
    assert np.all(ratios == beta0)
    a, b = general_entries_series(ansatz, profile, ts)
    a_closed, b_closed = beta0_series(profile, beta0, ts)
    assert np.array_equal(a, a_closed) and np.array_equal(b, b_closed)


@given(first=st.floats(min_value=1e-12, max_value=1e-4),
       gaps=st.lists(_span(1e-6, 1.0), min_size=1, max_size=40),
       with_zero=st.booleans())
def test_generic_quadrature_matches_case2_on_nonuniform_grids(first, gaps,
                                                              with_zero):
    taus = first + np.concatenate(([0.0], np.cumsum(gaps)))
    if with_zero:
        taus = np.concatenate(([0.0], taus))
    *triple, ratio = ThetaEvaluator(case2_ansatz()).solve(taus)
    for got, ref in zip(triple, case2_triple(taus)):
        assert np.max(np.abs(got - ref)) <= 1e-9
    # the cotangent needs phi_int to relative accuracy at the smallest tau
    assert np.max(np.abs(ratio - case2_detuning_ratio(taus))) <= 1e-9


@st.composite
def _tau_grids(draw):
    # 2 to 1,001 points up to tau_max <= 8, uniform or sorted random
    size = draw(st.integers(min_value=2, max_value=1001))
    tau_max = draw(_span(1e-3, 8.0))
    if draw(st.booleans()):
        return np.linspace(0.0, tau_max, size)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.sort(rng.uniform(0.0, tau_max, size))


@settings(max_examples=25)
@given(family=st.sampled_from(("case1", "case2")), taus=_tau_grids(),
       quad_tol=st.sampled_from((1e-8, 1e-10, 1e-12)))
def test_generic_phases_stay_within_quad_tol_of_closed_forms(family, taus,
                                                             quad_tol):
    ansatz, triple = {"case1": (case1_ansatz, case1_triple),
                      "case2": (case2_ansatz, case2_triple)}[family]
    _, phi, r, _ = ThetaEvaluator(ansatz(), quad_tol=quad_tol).solve(taus)
    _, phi_ref, r_ref = triple(taus)
    assert np.max(np.abs(phi - phi_ref)) <= quad_tol
    assert np.max(np.abs(r - r_ref)) <= quad_tol


MODES_Z_MAX = 2.0


@st.composite
def _couplings(draw, table_dir):
    family = draw(st.sampled_from(("constant", "sech", "custom_table")))
    if family == "constant":
        params = {"k0": draw(_span(0.0, 3.0)), "phase": draw(_span(-4.0, 4.0))}
    elif family == "sech":
        params = {"k0": draw(_span(0.05, 3.0))}
    else:
        nodes = draw(st.integers(min_value=2, max_value=8))
        cells = st.lists(_span(-2.0, 2.0), min_size=nodes, max_size=nodes)
        rows = np.column_stack([np.linspace(0.0, MODES_Z_MAX, nodes),
                                draw(cells), draw(cells)])
        path = table_dir / "k.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        params = {"path": str(path)}
    return {"delta": draw(_span(-3.0, 3.0)),
            "coupling": {"family": family, "params": params}}


@settings(max_examples=30)
@given(data=st.data())
def test_modes_conserve_power_and_transfer_the_flip_curve(data,
                                                          tmp_path_factory):
    cfg = data.draw(_couplings(tmp_path_factory.getbasetemp()),
                    label="config")
    out = propagate_modes(coupling_from_config(cfg), (1.0, 0.0), MODES_Z_MAX)
    assert np.max(np.abs(out.total_power - 1.0)) <= 1e-10
    assert np.max(np.abs(out.power_b - out.base.p_flip)) <= 1e-10


@st.composite
def _one_phase_couplings(draw, table_dir):
    # catalog couplings whose phase never turns: constant, sech, and real
    # tables that keep one sign
    family = draw(st.sampled_from(("constant", "sech", "custom_table")))
    if family == "constant":
        params = {"k0": draw(_span(0.0, 3.0)), "phase": draw(_span(-4.0, 4.0))}
    elif family == "sech":
        params = {"k0": draw(_span(0.05, 3.0))}
    else:
        nodes = draw(st.integers(min_value=2, max_value=8))
        sign = draw(st.sampled_from((1.0, -1.0)))
        cells = draw(st.lists(_span(0.0, 2.0), min_size=nodes,
                              max_size=nodes))
        rows = np.column_stack([np.linspace(0.0, MODES_Z_MAX, nodes),
                                sign * np.array(cells)])
        path = table_dir / "k1.csv"
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        params = {"path": str(path)}
    return {"delta": draw(_span(-3.0, 3.0)),
            "coupling": {"family": family, "params": params}}


@settings(max_examples=30)
@given(data=st.data())
def test_one_phase_couplings_run_in_the_frame_as_in_the_lab(
        data, tmp_path_factory):
    # the catalog states the constant phase, so the oracle runs the mode
    # problem in the resonance frame; the same callable without it runs in
    # the lab frame, and at one step the two agree to round-off
    cfg = data.draw(_one_phase_couplings(tmp_path_factory.getbasetemp()),
                    label="config")
    spec = coupling_from_config(cfg)
    assert spec.phase is not None
    config = PropagatorConfig(step=2e-3, samples=SAMPLES)
    frame, lab = (propagate_modes(s, (1.0, 0.0), MODES_Z_MAX, config)
                  for s in (spec, dataclasses.replace(spec, phase=None)))
    assert max(np.max(np.abs(frame.amp_a - lab.amp_a)),
               np.max(np.abs(frame.amp_b - lab.amp_b))) <= 1e-12
    # no larger drift, up to the few eps by which two roundings differ
    # (frame above lab in about 3 of 10 draws, by at most 9 eps)
    assert frame.base.unitarity_drift \
        <= lab.base.unitarity_drift + 32 * np.finfo(float).eps


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10)
@given(data=st.data())
def test_stated_detuning_is_omega_plus_half_the_phase_rate(family, data):
    # the resonance frame reads the stated detuning; this keeps it equal to
    # the lab fields it stands for
    values = data.draw(st.fixed_dictionaries(DOMAINS[family]), label="params")
    for split in (0.0, 0.4) if _CATALOG[family].split else (0.0,):
        params = ScenarioParams(family, values, split_fraction=split)
        profile = make_scenario(params)
        t_max = default_window(family)[0] / scenario_time_scale(params)
        ts = np.linspace(0.0, t_max, 65)
        stated = profile.detuning(ts)
        lab = profile.omega_z(ts) + 0.5 * profile.phi_omega_dot(ts)
        assert np.all(np.abs(stated - lab) <= 1e-12 * (1.0 + np.abs(stated)))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10)
@given(data=st.data())
def test_stated_transverse_area_is_the_integral_of_the_envelope(family, data):
    # every envelope states tau in closed form; the panel quadrature of its
    # |omega| must agree (see CHANGES.md for a long modulated window on
    # which the quadrature itself misses)
    values = data.draw(st.fixed_dictionaries(DOMAINS[family]), label="params")
    params = ScenarioParams(family, values)
    profile = make_scenario(params)
    ts = np.linspace(0.0, WINDOW / scenario_time_scale(params), 33)
    bare = dataclasses.replace(profile, tau_of_t=None)
    assert np.max(np.abs(profile.tau_of_t(ts)
                         - transverse_area_series(bare, ts))) <= 1e-12


# the catalog family whose parameters each envelope reads
ENVELOPES = {_sech: "sech_resonant", _exp: "exp_resonant",
             _modulated: "modulated_resonant"}


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20)
@given(data=st.data())
def test_the_case_ratios_over_any_envelope_are_solved_by_their_ansatz(
        family, data):
    # the paper's construction: Delta = r(tau) |omega| with the record's
    # ratio r (a locked beta or a case's r(tau)) is solvable by its Theta
    # whatever the envelope |omega|, so the record's default ansatz must
    # verify against the profile the one builder makes from the record over
    # another envelope; the envelope's draw overlays the family's, and the
    # merged params fix the ratio, the phase rate and the envelope alike
    envelope = data.draw(st.sampled_from(tuple(ENVELOPES)), label="envelope")
    values = data.draw(st.fixed_dictionaries(DOMAINS[family]),
                       label="family params")
    values = {**values, **data.draw(
        st.fixed_dictionaries(DOMAINS[ENVELOPES[envelope]]), label="params")}
    split = data.draw(_span(0.0, 1.0), label="split_fraction") \
        if _CATALOG[family].split else 0.0
    record = dataclasses.replace(_CATALOG[family], envelope=envelope)
    profile = _build(record, values, split,
                     f"{family} over {envelope.__name__}")
    # tau reaches at most WINDOW: |omega| peaks at t = 0 on all three
    t_max = WINDOW / float(profile.omega_mag(0.0))
    # CF4's automatic step takes the scale from 257 probes, which a weak,
    # fast modulation slips between, and then misses 1e-6 (ROADMAP item
    # 2); at most t_max / 2^13 keeps the oracle the reference here
    step = min(suggested_step(profile, t_max, "commutator_free_4th"),
               t_max / 2 ** 13)
    try:  # an envelope may draw a shared key outside the family's domain
        params = ScenarioParams(family, {k: values[k] for k in DOMAINS[family]})
    except ConfigError:
        assume(False)
    report = verify_ansatz(default_ansatz(params), profile, t_max, samples=33,
                           config=PropagatorConfig(
                               scheme="commutator_free_4th", step=step))
    assert report.passed, report


@pytest.mark.parametrize("family", ("case1", "case2"))
@settings(max_examples=10)
@given(omega_mag0=DOMAINS["case1"]["omega_mag0"], split=_span(0.0, 1.0))
def test_split_fraction_leaves_moduli_and_flip_unchanged(family, omega_mag0,
                                                         split):
    # split_fraction moves part of the detuning into the drive phase; the
    # moduli of the entries and the flip probability must not notice
    split_params, base_params = (
        ScenarioParams(family, {"omega_mag0": omega_mag0}, split_fraction=f)
        for f in (split, 0.0))
    profile, base = make_scenario(split_params), make_scenario(base_params)
    t_max = WINDOW / scenario_time_scale(base_params)
    ts = np.linspace(0.0, t_max, SAMPLES)
    a, b = closed_form_series(split_params, profile, ts)
    a0, b0 = closed_form_series(base_params, base, ts)
    assert np.max(np.abs(np.abs(a) - np.abs(a0))) <= 1e-12
    assert np.max(np.abs(np.abs(b) - np.abs(b0))) <= 1e-12
    assert np.max(np.abs(np.abs(b) ** 2 - np.abs(b0) ** 2)) <= 1e-12

    step = suggested_step(profile, t_max)
    assume(t_max / step <= 2 ** 18)
    for scheme in SCHEMES:
        traj = propagate(profile, PropagatorConfig(
            scheme=scheme, step=step, samples=SAMPLES), t_max)
        assert np.max(np.abs(traj.p_flip - np.abs(b0) ** 2)) <= 1e-6, scheme


# the benchmark's Richardson set-up: 11 samples, and a step this many times
# suggested_step, which keeps the differences well above round-off
RICHARDSON_SAMPLES = 11
RICHARDSON_STEP = {"midpoint_exponential": 10.0, "commutator_free_4th": 40.0}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=5)
@given(data=st.data())
def test_richardson_observes_the_nominal_order(family, scheme, data):
    values = data.draw(st.fixed_dictionaries(DOMAINS[family]), label="params")
    split = data.draw(_span(0.0, 1.0), label="split_fraction") \
        if _CATALOG[family].split else 0.0
    params = ScenarioParams(family, values, split_fraction=split)
    profile = make_scenario(params)
    t_max = WINDOW / scenario_time_scale(params)
    step = RICHARDSON_STEP[scheme] * suggested_step(profile, t_max)
    # bounds the cost: the finest of the three runs takes 4x the substeps
    assume(4 * t_max / step <= 2 ** 18)
    report = richardson_check(profile, PropagatorConfig(
        scheme=scheme, step=step, samples=RICHARDSON_SAMPLES), t_max)
    assert report.within_tolerance, report
