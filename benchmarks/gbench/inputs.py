"""Seeded input generation for the three workloads.

Every number a job needs is drawn here from ``--seed``. Draws for one
parameter across the K variants of a family are stratified (one draw per
1/K slice of the range, in shuffled order), so every seed covers each range
evenly and the cost of a pool changes little from seed to seed. All ranges
lie inside the domains the scenario catalog documents (``list-scenarios``
and the README); they are listed in ``RANGES`` and printed by
``run.py --summary``.

A job is a plain JSON-ready dict. File inputs (configs, coupling tables,
ansatz tables) are written into a work directory and named relative to it,
so the same seed produces byte-identical jobs and files in any directory.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi

# (lo, hi) per parameter; "window" is t_max on the family's dimensionless
# axis (z_max for couplings, tau_max for ansatz tables).
RANGES = {
    "rabi": {"omega_z0": (-1.0, 1.0), "omega_mag0": (0.8, 1.25),
             "phi_dot0": (-2.0, 2.0), "window": (8.0, 4.0 * math.pi)},
    "sech_resonant": {"omega_mag0": (0.8, 1.25), "phi_dot0": (8.0, 12.0),
                      "window": (5.0, 6.0)},
    "exp_resonant": {"omega_mag0": (0.8, 1.25),
                     "alpha": (4.0 * math.pi, 5.0 * math.pi),
                     "window": (16.0, 20.0)},
    "modulated_resonant": {"C": (0.8, 1.2), "k": (0.0, 1.0), "n": (6, 12),
                           "phi_dot0": (0.8, 1.25),
                           "window": (10.0, 4.0 * math.pi)},
    "constant_beta0": {"beta0": (0.0, 2.0), "omega_mag0": (0.8, 1.25),
                       "window": (8.0, 4.0 * math.pi)},
    "case1": {"omega_mag0": (0.8, 1.25), "split_fraction": (0.0, 1.0),
              "window": (40.0, 50.0)},
    "case2": {"omega_mag0": (0.8, 1.25), "split_fraction": (0.0, 1.0),
              "window": (16.0, 20.0)},
    "coupling_constant": {"k0": (0.5, 1.5), "phase": (0.0, TWO_PI),
                          "delta": (-1.0, 1.0), "window": (2.0, 6.0)},
    "coupling_sech": {"k0": (0.8, 1.25), "window": (4.0, 6.0)},
    "coupling_table": {"nodes": (16, 32), "k": (0.5, 1.5),
                       "window": (4.0, 6.0)},
    "verify_case1": {"omega_mag0": (0.8, 1.25), "split_fraction": (0.0, 1.0),
                     "window": (30.0, 50.0)},
    "verify_case2": {"omega_mag0": (0.8, 1.25), "split_fraction": (0.0, 1.0),
                     "window": (10.0, 20.0)},
    "verify_table": {"omega_mag0": (0.8, 1.25), "split_fraction": (0.0, 1.0),
                     "window": (2.0, 4.0)},
}

FAMILIES = ("rabi", "sech_resonant", "exp_resonant", "modulated_resonant",
            "constant_beta0", "case1", "case2")
RESONANT = ("sech_resonant", "exp_resonant", "modulated_resonant")
INTEGER_PARAMS = ("n", "nodes")

SAMPLES = 1001           # output samples of run / modes / series jobs
VERIFY_SAMPLES = 257     # verify_ansatz default
TABLE_DENSITY = 400      # ansatz table nodes per unit tau
TABLE_MARGIN = 0.5       # ansatz table extends this far past the window
TINY_WINDOW = 0.1        # window factor for smoke-sized pools
TINY_SAMPLES = 65

# Seeds are combined with a per-workload tag so workloads draw independent
# streams from the same --seed.
_TAGS = {"cli_mix": 1, "oracle_sweep": 2, "theta_verify": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload]])


def _stratified(rng, k: int, lo, hi, integer: bool = False) -> list:
    u = (np.arange(k) + rng.random(k)) / k
    rng.shuffle(u)
    if integer:
        return [int(lo + math.floor(x * (hi - lo + 1))) for x in u]
    return [float(lo + (hi - lo) * x) for x in u]


def draw(rng, key: str, k: int) -> list[dict]:
    """k stratified parameter sets for one RANGES entry."""
    cols = {name: _stratified(rng, k, lo, hi, name in INTEGER_PARAMS)
            for name, (lo, hi) in RANGES[key].items()}
    return [{name: col[i] for name, col in cols.items()} for i in range(k)]


def scenario_split(draw_: dict) -> tuple[dict, float, float]:
    """(family params, split_fraction, window) from one draw."""
    params = {k: v for k, v in draw_.items()
              if k not in ("window", "split_fraction")}
    return params, draw_.get("split_fraction", 0.0), draw_["window"]


def axis_scale(family: str, params: dict) -> float:
    """Physical time -> the family's dimensionless axis (catalog table)."""
    if family == "exp_resonant":
        return params["omega_mag0"] / params["alpha"]
    if family == "modulated_resonant":
        return params["phi_dot0"]
    return params["omega_mag0"]


def _params_text(params: dict, split: float) -> str:
    items = [f"{k}={v!r}" for k, v in params.items()]
    if split:
        items.append(f"split_fraction={split!r}")
    return ",".join(items)


def _write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", newline="") as fh:
        fh.write(text)
    return name


def _coupling_table(rng, d: dict, workdir: str, name: str) -> dict:
    """Write a real, positive piecewise-linear coupling table."""
    zs = np.linspace(0.0, d["window"], d["nodes"])
    lo, hi = RANGES["coupling_table"]["k"]
    ks = lo + (hi - lo) * rng.random(zs.size)
    text = "z,re_k\n" + "".join(f"{z!r},{k!r}\n" for z, k in
                                zip(zs.tolist(), ks.tolist()))
    return {"path": _write(workdir, name, text), "z": zs.tolist(),
            "k": ks.tolist()}


def case2_theta(tau):
    """The full-inversion ansatz Theta(tau) = 2 atan(tau / sqrt(2 + tau^2))."""
    tau = np.asarray(tau, dtype=float)
    return 2.0 * np.arctan(tau / np.sqrt(2.0 + tau ** 2))


def _ansatz_table(tau_max: float, workdir: str, name: str) -> str:
    n = int(TABLE_DENSITY * (tau_max + TABLE_MARGIN)) + 1
    taus = np.linspace(0.0, tau_max + TABLE_MARGIN, n)
    text = "tau,theta\n" + "".join(
        f"{x!r},{y!r}\n" for x, y in zip(taus.tolist(),
                                          case2_theta(taus).tolist()))
    return _write(workdir, name, text)


# ---------------------------------------------------------------------------
# cli_mix

def cli_pool(seed: int, workdir: str, tiny: bool = False) -> list[dict]:
    """Whole ``genrabi`` invocations; outputs are written into workdir.

    Per variant: a closed-form ``run`` of every family (alternating CSV and
    JSON, alternating flags and config files), ``run --engine both`` on the
    resonant families, and ``modes`` with constant, sech and table
    couplings. One ``list-scenarios`` opens the pool.
    """
    rng = _rng("cli_mix", seed)
    k = 1 if tiny else 2
    wf = TINY_WINDOW if tiny else 1.0
    fam_draws = {f: draw(rng, f, k) for f in FAMILIES}
    both_draws = {f: draw(rng, f, k) for f in RESONANT}
    cpl = {c: draw(rng, f"coupling_{c}", k)
           for c in ("constant", "sech", "table")}
    jobs = [{"kind": "cli", "cmd": "list", "argv": ["list-scenarios"]}]
    n = 0
    for v in range(k):
        for fi, fam in enumerate(FAMILIES):
            params, split, window = scenario_split(fam_draws[fam][v])
            window *= wf
            fmt = "csv" if (v + fi) % 2 == 0 else "json"
            out = f"out{n:02d}.{fmt}"
            if (v + fi // 2) % 2 == 0:
                argv = ["run", "--scenario", fam, "--t-max", repr(window)]
                if params or split:
                    argv += ["--params", _params_text(params, split)]
            else:
                cfg = {"family": fam, "params": params,
                       "window": {"t_max": window}}
                if split:
                    cfg["split_fraction"] = split
                argv = ["run", "--config",
                        _write(workdir, f"cfg{n:02d}.json",
                               json.dumps(cfg, sort_keys=True))]
            argv += ["--format", fmt, "--out", out]
            jobs.append({"kind": "cli", "cmd": "run", "argv": argv,
                         "family": fam, "params": params, "split": split,
                         "window": window, "format": fmt, "out": out,
                         "engine": "closed_form"})
            n += 1
        for fam in RESONANT:
            params, split, window = scenario_split(both_draws[fam][v])
            window *= wf
            out = f"out{n:02d}.csv"
            argv = ["run", "--scenario", fam, "--t-max", repr(window),
                    "--params", _params_text(params, split),
                    "--engine", "both", "--out", out]
            jobs.append({"kind": "cli", "cmd": "run", "argv": argv,
                         "family": fam, "params": params, "split": split,
                         "window": window, "format": "csv", "out": out,
                         "engine": "both"})
            n += 1
        d = cpl["constant"][v]
        z_max = d["window"] * wf
        out = f"out{n:02d}.csv"
        jobs.append({"kind": "cli", "cmd": "modes", "coupling": "constant",
                     "argv": ["modes", "--coupling", "constant", "--params",
                              f"k0={d['k0']!r},phase={d['phase']!r}",
                              "--delta", repr(d["delta"]),
                              "--z-max", repr(z_max), "--out", out],
                     "k0": d["k0"], "delta": d["delta"], "window": z_max,
                     "format": "csv", "out": out})
        n += 1
        d = cpl["sech"][v]
        z_max = d["window"] * wf
        cfg = {"delta": 0.0, "coupling": {"family": "sech",
                                          "params": {"k0": d["k0"]}}}
        out = f"out{n:02d}.json"
        jobs.append({"kind": "cli", "cmd": "modes", "coupling": "sech",
                     "argv": ["modes", "--config",
                              _write(workdir, f"cfg{n:02d}.json",
                                     json.dumps(cfg, sort_keys=True)),
                              "--z-max", repr(z_max), "--format", "json",
                              "--out", out],
                     "k0": d["k0"], "delta": 0.0, "window": z_max,
                     "format": "json", "out": out})
        n += 1
        d = dict(cpl["table"][v])
        d["window"] *= wf
        table = _coupling_table(rng, d, workdir, f"coupling{n:02d}.csv")
        cfg = {"delta": 0.0, "coupling": {"family": "custom_table",
                                          "params": {"path": table["path"]}}}
        out = f"out{n:02d}.csv"
        jobs.append({"kind": "cli", "cmd": "modes", "coupling": "table",
                     "argv": ["modes", "--config",
                              _write(workdir, f"cfg{n:02d}.json",
                                     json.dumps(cfg, sort_keys=True)),
                              "--z-max", repr(d["window"]), "--out", out],
                     "table": table, "delta": 0.0, "window": d["window"],
                     "format": "csv", "out": out})
        n += 1
    if tiny:  # one job of each kind: every process costs ~1 s
        seen = set()
        jobs = [j for j in jobs if _kind(j) not in seen
                and not seen.add(_kind(j))]
    return jobs


def _kind(job: dict) -> tuple:
    return job["cmd"], job.get("engine"), job.get("coupling")


# ---------------------------------------------------------------------------
# oracle_sweep

RICHARDSON_EVERY = 4
RICHARDSON_SAMPLES = 11
# step multiples of suggested_step that keep the Richardson differences
# well above round-off for each scheme
RICHARDSON_STEP = {"midpoint_exponential": 10.0, "commutator_free_4th": 40.0}
SCHEMES = ("midpoint_exponential", "commutator_free_4th")


def oracle_pool(seed: int, workdir: str, tiny: bool = False) -> list[dict]:
    """Closed form plus oracle per family, and modes jobs.

    Variant v of every family runs the midpoint scheme for even v and CF4
    for odd v; every RICHARDSON_EVERY-th family job adds a Richardson order
    check. Each variant is followed by a sech and a table modes job.
    """
    rng = _rng("oracle_sweep", seed)
    k = 1 if tiny else 32
    k_modes = 1 if tiny else 24
    wf = TINY_WINDOW if tiny else 1.0
    samples = TINY_SAMPLES if tiny else SAMPLES
    fam_draws = {f: draw(rng, f, k) for f in FAMILIES}
    sech = draw(rng, "coupling_sech", k_modes)
    tables = draw(rng, "coupling_table", k_modes)
    jobs = []
    n = 0
    for v in range(k):
        for fam in FAMILIES:
            params, split, window = scenario_split(fam_draws[fam][v])
            jobs.append({"kind": "oracle", "family": fam, "params": params,
                         "split": split, "window": window * wf,
                         "samples": samples, "scheme": SCHEMES[v % 2],
                         "richardson": n % RICHARDSON_EVERY
                         == RICHARDSON_EVERY - 1})
            n += 1
        if v < k_modes:
            jobs.append({"kind": "modes", "coupling": "sech",
                         "k0": sech[v]["k0"], "delta": 0.0,
                         "window": sech[v]["window"] * wf,
                         "samples": samples})
            d = dict(tables[v])
            d["window"] *= wf
            jobs.append({"kind": "modes", "coupling": "table",
                         "table": _coupling_table(rng, d, workdir,
                                                  f"coupling{v:02d}.csv"),
                         "delta": 0.0, "window": d["window"],
                         "samples": samples})
    return jobs


# ---------------------------------------------------------------------------
# theta_verify

VERIFY_TOLS = {"named": {"tol": 1e-8, "entries_tol": 1e-6},
               # the README's tolerances for sampled tables
               "table": {"tol": 1e-2, "entries_tol": 1e-3}}


def theta_pool(seed: int, workdir: str, tiny: bool = False) -> list[dict]:
    """verify_ansatz on case1, case2 and a sampled case2 table; the general
    route at SAMPLES samples; the case1 closed form.

    One more case1 and one more case2 verify sit at the costliest corner of
    their ranges (longest window, all detuning in the phase, which sets the
    fastest scale), so the same jobs in every seed set peak memory (the case2
    corner's oracle allocates the most) and the tail: over two passes the k
    general-route jobs give the 2k slowest samples, and the corners' copies
    are the slowest verify samples just below them.
    """
    rng = _rng("theta_verify", seed)
    k = 1 if tiny else 4
    wf = TINY_WINDOW if tiny else 1.0
    samples = TINY_SAMPLES if tiny else SAMPLES
    vsamples = TINY_SAMPLES if tiny else VERIFY_SAMPLES
    v1 = draw(rng, "verify_case1", k)
    v2 = draw(rng, "verify_case2", k)
    vt = draw(rng, "verify_table", k)
    ent = {"case1": draw(rng, "case1", k), "case2": draw(rng, "case2", k)}
    closed = draw(rng, "case1", k)
    jobs = []
    for v in range(k):
        for fam, d in (("case1", v1[v]), ("case2", v2[v])):
            params, split, window = scenario_split(d)
            jobs.append({"kind": "verify", "family": fam, "params": params,
                         "split": split, "window": window * wf,
                         "samples": vsamples, "ansatz": fam,
                         **VERIFY_TOLS["named"]})
        params, split, window = scenario_split(vt[v])
        window *= wf
        tau_max = window  # case axis is omega_mag0*t = tau
        jobs.append({"kind": "verify", "family": "case2", "params": params,
                     "split": split, "window": window, "samples": vsamples,
                     "ansatz": _ansatz_table(tau_max, workdir,
                                             f"ansatz{v:02d}.csv"),
                     **VERIFY_TOLS["table"]})
        fam = ("case1", "case2")[v % 2]
        params, split, window = scenario_split(ent[fam][v])
        jobs.append({"kind": "entries", "family": fam, "params": params,
                     "split": split, "window": window * wf,
                     "samples": samples})
        params, split, window = scenario_split(closed[v])
        jobs.append({"kind": "closed", "family": "case1", "params": params,
                     "split": split, "window": window * wf,
                     "samples": samples})
    for fam in ("case1", "case2"):
        corner = RANGES[f"verify_{fam}"]
        jobs.append({"kind": "verify", "family": fam,
                     "params": {"omega_mag0": 1.0},
                     "split": corner["split_fraction"][1],
                     "window": corner["window"][1] * wf, "samples": vsamples,
                     "ansatz": fam, **VERIFY_TOLS["named"]})
    return jobs


POOLS = {"cli_mix": cli_pool, "oracle_sweep": oracle_pool,
         "theta_verify": theta_pool}
