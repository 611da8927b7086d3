"""Registry-driven properties over random in-domain family parameters.

For every catalog family, the closed form (closed_form_series) and the
general Theta route with the family's own ansatz (default_ansatz) evaluate
the same (Theta, phi_int, r_int) representation, so they must agree, and
both must be unitary.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genrabi.scenarios import (BUILT_IN, ScenarioParams, _CATALOG,
                               closed_form_series, default_ansatz,
                               make_scenario, scenario_time_scale)
from genrabi.theta import general_entries_series


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
