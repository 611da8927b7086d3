"""Properties over random in-domain parameters and grids.

For every catalog family, the closed form (closed_form_series) and the
general Theta route with the family's own ansatz (default_ansatz) evaluate
the same (Theta, phi_int, r_int) representation, so they must agree, and
both must be unitary. The unitary oracle at suggested_step must stay unitary
under both schemes and, with CF4, track the closed-form flip probability.
The one-pass phase quadrature of the Theta route must
reproduce closed-form phase integrals on random grids, down to the smallest
tau, and the locked-ratio ansatz is the closed form's own (triple, ratio)
pair for any beta0. Coupled modes conserve power for random constant, sech
and table couplings, and the launched-mode transfer equals the mapped flip
curve.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from genrabi.closed_forms import (beta0_series, beta0_triple,
                                  case2_detuning_ratio, case2_triple)
from genrabi.errors import NumericError
from genrabi.fields import transverse_area_series
from genrabi.modes import coupling_from_config, propagate_modes
from genrabi.propagator import (SCHEMES, PropagatorConfig, propagate,
                                richardson_check, suggested_step)
from genrabi.scenarios import (BUILT_IN, ScenarioParams, _CATALOG,
                               closed_form_series, default_ansatz,
                               make_scenario, scenario_time_scale)
from genrabi.theta import (ThetaAnsatz, ThetaEvaluator, beta0_ansatz,
                           case2_ansatz, general_entries_series)


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


@pytest.mark.parametrize("family", BUILT_IN)
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


@pytest.mark.parametrize("family", BUILT_IN)
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
    _, b = closed_form_series(params, profile, ts)
    runs = {scheme: propagate(profile, PropagatorConfig(
        scheme=scheme, step=step, samples=SAMPLES), t_max)
        for scheme in SCHEMES}
    for traj in runs.values():
        assert traj.unitarity_drift <= 1e-10
    p_flip = runs["commutator_free_4th"].p_flip
    assert np.max(np.abs(p_flip - np.abs(b) ** 2)) <= 1e-6


def _generic_beta0_phases(beta0, reach):
    # beta0_ansatz without its closed pair: only Theta remains, so
    # (phi_int, r_int) come from the panel quadrature; below
    # 0.9 pi / sqrt(1 + beta0^2) sin(2 phi_int) stays clear of zero
    generic = ThetaAnsatz(theta=beta0_ansatz(beta0).theta,
                          label="beta0 generic")
    taus = np.linspace(0.0, reach * 0.9 * math.pi / math.hypot(1.0, beta0), 17)
    _, phi, r = ThetaEvaluator(generic).triple(taus)
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
    ratios = ThetaEvaluator(ansatz).ratios(transverse_area_series(profile, ts))
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
    ev = ThetaEvaluator(case2_ansatz())
    for got, ref in zip(ev.triple(taus), case2_triple(taus)):
        assert np.max(np.abs(got - ref)) <= 1e-9
    # the cotangent needs phi_int to relative accuracy at the smallest tau
    assert np.max(np.abs(ev.ratios(taus) - case2_detuning_ratio(taus))) <= 1e-9


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
@pytest.mark.parametrize("family", BUILT_IN)
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
