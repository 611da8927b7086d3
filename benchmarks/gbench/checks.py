"""Output checks that share no code with the package under test.

Each law is written out here from the README's formulas, on the family's
dimensionless axis x (the CSV ``t`` column), and evaluated with numpy alone.
Tolerances are the pinned ones of ``tests/test_acceptance.py`` and the
README; a checker returns a list of misses (empty when the output passes)
and never raises on a bad output.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL_CLOSED_LAW = 1e-9      # closed-form |b|^2 against its law
TOL_ORACLE_LAW = 1e-6      # oracle |b|^2 against the law
TOL_UNITARITY = 1e-10      # | |a|^2 + |b|^2 - 1 |
# The gate pins oracle against closed form on the flip probability |b|^2
# (acceptance 02, 05-07; ``max_abs_dP`` of ``run --engine both``), not on
# the complex entries, whose phase error grows faster along the window; the
# entry deviation is reported as ``propagator.err_max``.
TOL_ORACLE_VS_CLOSED = 1e-6
TOL_POWER_DRIFT = 1e-10
TOL_MODES_LAW = 1e-6
# A table coupling is piecewise linear: substeps that straddle a kink lose
# the scheme's order, so at suggested_step its transfer misses sin^2(area)
# by up to ~2e-6 (measured). No tolerance is pinned for it; this bound only
# catches gross errors (table parsing, the mode mapping).
TOL_TABLE_LAW = 1e-4
# Families with a constant Hamiltonian, which both schemes integrate exactly
# at any step: Richardson differences there are round-off, and the order
# gate does not apply (see richardson_misses).
EXACT_FAMILIES = ("constant_beta0",)
# The midpoint scheme at suggested_step misses the rabi law by up to 1.05e-6
# (300 draws over RANGES["rabi"], worst near resonance with |phi_dot0| ~ 2
# and the longest windows): the step's single margin is not accuracy-aware.
# The gate pins no oracle accuracy for rabi (unitarity only), so a miss up
# to this bound is tallied as a known defect and printed by every run; a
# larger one fails the job.
TOL_RABI_MIDPOINT = 1e-5
RABI_MIDPOINT = ("rabi", "midpoint_exponential")  # (family, scheme)

# Shortfalls of the package that a run tallies and prints instead of
# failing the job, each with the line that reports it.
KNOWN_DEFECTS = {
    "rabi_midpoint": "midpoint oracle at suggested_step missed the rabi law "
                     "by more than 1e-6",
    "richardson_exact": "richardson_check gave an order estimate instead of "
                        "its round-off note on an exactly integrated family",
}


def flip_law(family: str, params: dict, x):
    """Flip probability |b|^2 on the family's dimensionless axis x."""
    x = np.asarray(x, dtype=float)
    if family in ("rabi", "constant_beta0"):
        if family == "rabi":
            beta = (params["omega_z0"] + 0.5 * params["phi_dot0"]) \
                / params["omega_mag0"]
        else:
            beta = params["beta0"]
        stretch = math.sqrt(1.0 + beta * beta)
        return np.sin(stretch * x) ** 2 / (1.0 + beta * beta)
    if family == "sech_resonant":
        return np.tanh(x) ** 2
    if family == "exp_resonant":
        return np.sin(params["alpha"] * (1.0 - np.exp(-x))) ** 2
    if family == "modulated_resonant":
        n = params["n"]
        return np.sin(params["C"] * (x + (params["k"] / n)
                                     * np.sin(n * x))) ** 2
    if family == "case1":
        return 0.5 - 0.5 / np.sqrt(1.0 + 4.0 * x * x)
    if family == "case2":
        return x * x / (1.0 + x * x)
    raise ValueError(f"no law for {family!r}")


def table_area(z, nodes, values):
    """Exact integral from 0 to z of the linear interpolant (held past the
    last node, as the coupling table does)."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    seg = 0.5 * (values[1:] + values[:-1]) * np.diff(nodes)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    z = np.asarray(z, dtype=float)
    i = np.clip(np.searchsorted(nodes, z, side="right") - 1, 0,
                nodes.size - 1)
    kz = np.interp(z, nodes, values)
    return cum[i] + 0.5 * (values[i] + kz) * (z - nodes[i])


def transfer_law(job: dict, z):
    """Power in mode B for input (1, 0)."""
    z = np.asarray(z, dtype=float)
    if job["coupling"] == "constant":
        k0, delta = job["k0"], job["delta"]
        rate = math.sqrt(k0 * k0 + 0.25 * delta * delta)
        return (k0 * k0 / (rate * rate)) * np.sin(rate * z) ** 2
    if job["coupling"] == "sech":
        return np.tanh(job["k0"] * z) ** 2
    table = job["table"]
    return np.sin(table_area(z, table["z"], table["k"])) ** 2


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def entries_misses(what: str, family: str, params: dict, x, a, b,
                   law_tol: float) -> list[str]:
    """Unitarity and flip law of one (a, b) series on the axis x."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p = np.abs(b) ** 2
    out = []
    unit = _max_abs(np.abs(a) ** 2 + p - 1.0)
    if not unit <= TOL_UNITARITY:
        out.append(f"{what}: unitarity defect {unit:.2e} > {TOL_UNITARITY:g}")
    dev = _max_abs(p - flip_law(family, params, x))
    if not dev <= law_tol:
        out.append(f"{what}: |b|^2 off the {family} law by {dev:.2e} "
                   f"> {law_tol:g}")
    return out


def max_deviation(a1, b1, a2, b2) -> float:
    """Largest entry difference between two (a, b) series."""
    return max(_max_abs(np.asarray(a1) - np.asarray(a2)),
               _max_abs(np.asarray(b1) - np.asarray(b2)))


def flip_deviation(b1, b2) -> float:
    """Largest |b|^2 difference between two b series."""
    return _max_abs(np.abs(np.asarray(b1)) ** 2 - np.abs(np.asarray(b2)) ** 2)


def agreement_misses(dp: float, tol: float = TOL_ORACLE_VS_CLOSED
                     ) -> list[str]:
    """Oracle against closed form, given their largest |b|^2 difference."""
    if not dp <= tol:
        return [f"oracle vs closed form: max |dP| {dp:.2e} > {tol:g}"]
    return []


def oracle_misses(family: str, scheme: str, params: dict, x, b_closed,
                  a, b) -> tuple[list[str], bool]:
    """(misses, known shortfall) of one oracle series (a, b) against the
    family's law and the closed form's b on the axis x."""
    known = (family, scheme) == RABI_MIDPOINT
    tol = TOL_RABI_MIDPOINT if known else TOL_ORACLE_LAW
    misses = entries_misses(f"oracle {scheme}", family, params, x, a, b, tol)
    dp = flip_deviation(b_closed, b)
    misses += agreement_misses(dp, tol)
    law = _max_abs(np.abs(np.asarray(b)) ** 2 - flip_law(family, params, x))
    return misses, known and max(dp, law) > TOL_ORACLE_LAW


def richardson_misses(family: str, report) -> tuple[list[str], bool]:
    """(misses, mislabel) of one ``richardson_check`` report.

    Where the scheme has truncation error the report must find the observed
    order within 0.3 of the nominal one (acceptance 09). On an exactly
    integrated family there is no order to observe: the three refinements
    must agree to round-off (TOL_UNITARITY), and ``mislabel`` is True when
    the report gives an order estimate there instead of the round-off note
    its docstring promises (its fixed 1e-13 floor is below the round-off of
    long runs). A mislabel is a defect of the report's wording, not of the
    integration; the caller tallies and prints it.
    """
    if family in EXACT_FAMILIES:
        worst = max(report.coarse_diff, report.fine_diff)
        misses = []
        if not worst <= TOL_UNITARITY:
            misses.append(f"richardson on exact {family}: refinements differ "
                          f"by {worst:.2e} > {TOL_UNITARITY:g}")
        return misses, not report.within_tolerance
    if report.within_tolerance:
        return [], False
    return [f"richardson: observed order {report.observed_order:.3f}, "
            f"nominal {report.nominal_order:g} (+-0.3)"], False


def modes_misses(job: dict, z, power_b, total) -> list[str]:
    out = []
    drift = _max_abs(np.asarray(total) - 1.0)
    if not drift <= TOL_POWER_DRIFT:
        out.append(f"modes: power drift {drift:.2e} > {TOL_POWER_DRIFT:g}")
    tol = TOL_TABLE_LAW if job["coupling"] == "table" else TOL_MODES_LAW
    dev = _max_abs(np.asarray(power_b) - transfer_law(job, z))
    if not dev <= tol:
        out.append(f"modes {job['coupling']}: power transfer off its law by "
                   f"{dev:.2e} > {tol:g}")
    return out


# ---------------------------------------------------------------------------
# CLI output files

def read_table(path: str, fmt: str) -> dict:
    """Column name -> float array, from a CSV or JSON output file."""
    if fmt == "csv":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        return {name: rows[:, i] for i, name in enumerate(header)}
    with open(path) as fh:
        records = json.load(fh)
    return {name: np.array([r[name] for r in records], dtype=float)
            for name in records[0]}


def cli_run_misses(job: dict, cols: dict, deviation: dict | None) -> list[str]:
    a = cols["re_a"] + 1j * cols["im_a"]
    b = cols["re_b"] + 1j * cols["im_b"]
    out = entries_misses(f"run {job['family']}", job["family"], job["params"],
                         cols["t"], a, b, TOL_CLOSED_LAW)
    p_dev = _max_abs(cols["p_flip"] - np.abs(b) ** 2)
    if not p_dev <= TOL_UNITARITY:
        out.append(f"run: p_flip column differs from |b|^2 by {p_dev:.2e}")
    if abs(cols["t"][-1] - job["window"]) > 1e-9 * job["window"]:
        out.append(f"run: window ends at {cols['t'][-1]!r}, "
                   f"asked {job['window']!r}")
    if job["engine"] == "both":
        if deviation is None:
            out.append("run --engine both: no deviation sidecar")
        else:
            out += agreement_misses(deviation["max_abs_dP"])
    return out


def cli_modes_misses(job: dict, cols: dict) -> list[str]:
    return modes_misses(job, cols["z"], cols["powerB"], cols["total"])


def cli_list_misses(stdout: str, families) -> list[str]:
    listed = {line.strip() for line in stdout.splitlines()
              if line and not line[0].isspace()}
    missing = [f for f in families if f not in listed]
    return [f"list-scenarios: missing {', '.join(missing)}"] if missing else []
