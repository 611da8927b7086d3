import dataclasses
import math
import re

import numpy as np
import pytest

from genrabi.errors import ConfigError
from genrabi.fields import (
    FieldProfile,
    PhysicalField,
    detuning,
    from_profile,
    is_generalized_resonant,
    phase_derivative,
    to_profile,
    transverse_area,
    transverse_area_series,
)
from genrabi.modes import coupling_from_config
from genrabi.scenarios import ScenarioParams, make_scenario
from genrabi.theta import load_ansatz_table


def constant_profile(omega_z0, omega_mag0, phi_dot0):
    return FieldProfile(
        omega_z=lambda t: np.full_like(np.asarray(t, dtype=float), omega_z0),
        omega_mag=lambda t: np.full_like(np.asarray(t, dtype=float), omega_mag0),
        phi_omega=lambda t: phi_dot0 * np.asarray(t, dtype=float),
        phi_omega_dot=lambda t: np.full_like(np.asarray(t, dtype=float), phi_dot0),
        label="constant")


def test_detuning_of_constant_drive():
    assert detuning(constant_profile(1.0, 1.0, 0.0), 0.7) == pytest.approx(1.0)
    # omega_z = -phi_dot/2 cancels the frame term exactly
    prof = constant_profile(-5.0, 1.0, 10.0)
    grid = np.linspace(0.0, 4.0, 33)
    assert np.max(np.abs(detuning(prof, grid))) == 0.0


def test_numeric_phase_derivative_matches_analytic():
    prof = FieldProfile(
        omega_z=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        omega_mag=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        phi_omega=lambda t: np.sin(np.asarray(t, dtype=float)))
    for t in (0.3, 1.0, 2.5, 6.0):
        assert phase_derivative(prof, t) == pytest.approx(math.cos(t), abs=1e-9)


def test_numeric_phase_derivative_handles_wrapped_phase():
    # phase reported modulo 2 pi: the stencil unwraps locally, so the
    # derivative stays correct even where the raw values jump
    prof = FieldProfile(
        omega_z=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        omega_mag=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        phi_omega=lambda t: np.mod(10.0 * np.asarray(t, dtype=float), 2.0 * np.pi))
    grid = np.linspace(0.05, 3.0, 97)
    out = phase_derivative(prof, grid)
    assert np.max(np.abs(out - 10.0)) < 1e-6


def test_resonance_classifier_on_built_in_scenarios():
    sech = make_scenario("sech_resonant")
    assert is_generalized_resonant(sech, 6.0, tol=1e-12)
    beta = make_scenario(ScenarioParams("constant_beta0", {"beta0": 0.5}))
    assert not is_generalized_resonant(beta, 6.0, tol=1e-10)
    case2 = make_scenario("case2")
    assert not is_generalized_resonant(case2, 6.0, tol=1e-10)


def test_resonance_classifier_rejects_empty_window():
    with pytest.raises(ConfigError):
        is_generalized_resonant(make_scenario("sech_resonant"), (2.0, 2.0))
    with pytest.raises(ConfigError):
        is_generalized_resonant(make_scenario("sech_resonant"), 1.0, tol=0.0)


def test_rotating_field_maps_to_constant_envelope():
    nu = 3.0
    field = PhysicalField(
        b_x=lambda t: 2.0 * np.cos(nu * np.asarray(t, dtype=float)),
        b_y=lambda t: -2.0 * np.sin(nu * np.asarray(t, dtype=float)),
        b_z=lambda t: np.full_like(np.asarray(t, dtype=float), 4.0),
        mu0_g=1.0)
    prof = to_profile(field)
    grid = np.linspace(0.0, 5.0, 65)
    assert np.max(np.abs(prof.omega_mag(grid) - 1.0)) < 1e-12
    assert np.max(np.abs(prof.omega_z(grid) - 2.0)) < 1e-12
    # unwrapped phase is nu*t, far beyond the principal branch by t = 5
    assert np.max(np.abs(prof.phi_omega(grid) - nu * grid)) < 1e-9


def test_longitudinal_only_field_holds_phase_at_zero():
    field = PhysicalField(
        b_x=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        b_y=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        b_z=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        mu0_g=2.0)
    prof = to_profile(field)
    grid = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(prof.phi_omega(grid))) == 0.0
    assert np.max(np.abs(prof.omega_mag(grid))) == 0.0


def test_field_round_trip_reproduces_components():
    prof = make_scenario("sech_resonant")
    field = from_profile(prof, mu0_g=3.0)
    back = to_profile(field)
    grid = np.linspace(0.0, 6.0, 129)
    assert np.max(np.abs(back.omega_z(grid) - prof.omega_z(grid))) < 1e-12
    assert np.max(np.abs(back.omega_mag(grid) - prof.omega_mag(grid))) < 1e-12
    # phases may differ by a constant multiple of 2 pi only; here they agree
    assert np.max(np.abs(back.phi_omega(grid) - prof.phi_omega(grid))) < 1e-9


def test_mu0_g_must_be_positive():
    prof = make_scenario("sech_resonant")
    with pytest.raises(ConfigError):
        from_profile(prof, mu0_g=0.0)
    field = PhysicalField(
        b_x=lambda t: np.asarray(t, dtype=float),
        b_y=lambda t: np.asarray(t, dtype=float),
        b_z=lambda t: np.asarray(t, dtype=float),
        mu0_g=-1.0)
    with pytest.raises(ConfigError):
        to_profile(field)


def test_transverse_area_analytic_and_quadrature_agree():
    prof = make_scenario("sech_resonant")
    stripped = dataclasses.replace(prof, tau_of_t=None)
    grid = np.linspace(0.0, 6.0, 25)
    analytic = transverse_area_series(prof, grid)
    numeric = transverse_area_series(stripped, grid)
    assert np.max(np.abs(analytic - np.arctan(np.sinh(grid)))) < 1e-12
    assert np.max(np.abs(numeric - analytic)) < 1e-9
    assert transverse_area(stripped, 2.0) == pytest.approx(
        math.atan(math.sinh(2.0)), abs=1e-10)
    # the argument is a time, and the error says so
    with pytest.raises(ConfigError, match="^t must be >= 0$"):
        transverse_area(stripped, -1.0)


# both tables go through fields.read_table; each loader is queried on and
# between the knots of the plain table below
TABLE_LOADERS = {
    "ansatz": lambda path: load_ansatz_table(path).theta,
    "coupling": lambda path: coupling_from_config({
        "delta": 0.0, "coupling": {"family": "custom_table",
                                   "params": {"path": str(path)}}}).k_ab,
}
PLAIN_TABLE = "0,0\n0.5,0.125\n1.5,0.375\n"
SAME_TABLES = {
    "header": "x,y\n" + PLAIN_TABLE,
    "comment_line": "# sampled\n" + PLAIN_TABLE,
    "inline_comment": "0,0 # start\n0.5,0.125\n1.5,0.375 # end\n",
    "blank_lines": "\n0,0\n\n0.5,0.125\n  \n1.5,0.375\n",
    "spaced_cells": "0 , 0\n0.5,\t0.125\n 1.5,0.375 \n",
}
BAD_TABLES = {
    "ragged_row": "0,0\n0.5,0.125,9\n1.5,0.375\n",
    "empty_cell": "0,0\n0.5,\n1.5,0.375\n",
    "nan": "0,0\n0.5,nan\n1.5,0.375\n",
    "inf": "0,0\n0.5,inf\n1.5,0.375\n",
    "nan_first_row": "0,nan\n0.5,0.125\n1.5,0.375\n",
    "mixed_first_row": "0,theta\n0,0\n1.5,0.375\n",
    "one_data_row": "x,y\n0,0\n",
    "one_column": "0\n0.5\n1.5\n",
    "not_ascending": "0,0\n1.5,0.375\n0.5,0.125\n",
    "repeated_first_cell": "0,0\n0.5,0.125\n0.5,0.375\n",
    "comments_only": "# nothing\n\n",
}


def _write(tmp_path, name, text):
    path = tmp_path / f"{name}.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("loader", sorted(TABLE_LOADERS))
def test_one_table_format_for_ansatz_and_coupling(loader, tmp_path):
    load = TABLE_LOADERS[loader]
    query = np.linspace(0.0, 2.0, 17)
    plain = load(_write(tmp_path, "plain", PLAIN_TABLE))(query)
    assert np.array_equal(plain, np.interp(query, [0.0, 0.5, 1.5],
                                           [0.0, 0.125, 0.375]))
    for name, text in SAME_TABLES.items():
        assert np.array_equal(load(_write(tmp_path, name, text))(query),
                              plain), name


@pytest.mark.parametrize("case", sorted(BAD_TABLES) + [
    "directory", "binary", "missing"])
@pytest.mark.parametrize("loader", sorted(TABLE_LOADERS))
def test_table_format_violations_are_config_errors(loader, case, tmp_path):
    if case in BAD_TABLES:
        path = _write(tmp_path, case, BAD_TABLES[case])
    elif case == "binary":
        path = tmp_path / "table.bin"
        path.write_bytes(bytes(range(128, 256)) * 4)
    else:
        path = tmp_path if case == "directory" else tmp_path / "no.csv"
    # the error names the table kind and its path
    with pytest.raises(ConfigError, match=re.escape(f"{loader} table {path}")):
        TABLE_LOADERS[loader](path)
