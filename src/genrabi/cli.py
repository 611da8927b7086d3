"""Command-line scenario runner and data exporter.

Subcommands:

- run: evaluate a built-in scenario (closed form, numerical oracle, or both)
  and write a plot-ready CSV or JSON series.
- list-scenarios: show the family catalog with parameter defaults.
- verify: report how well a generating ansatz solves a scenario profile
  (detuning residual and deviation from the oracle).
- modes: the coupled-waveguide front end; writes mode amplitudes and powers
  along z.

Times on the command line (t-max, step) are on the scenario's dimensionless
axis (see list-scenarios); the CSV t column uses the same axis. Exit codes:
0 success, 2 usage or config error, 3 numeric failure (including a verify
that misses its thresholds).
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, GenrabiError, NumericError
from .fields import window_end
from .modes import COUPLING_FAMILIES, coupling_from_config, propagate_modes
# unused here; benchmarks/gbench/tracer.py patches these two names on cli
from .modes import to_su2_profile  # noqa: F401
from .propagator import SCHEMES, PropagatorConfig, Trajectory, propagate
from .propagator import suggested_step  # noqa: F401
from .scenarios import (BUILT_IN, DEFAULT_SAMPLES, FAMILIES, ScenarioParams,
                        check_keys, closed_form_series, default_ansatz,
                        default_window, family_summary, make_scenario,
                        scenario_time_scale)
from .theta import (ANSATZ_NAMES, load_ansatz_table, named_ansatz,
                    verify_ansatz)

ENGINE_CHOICES = ("closed_form", "oracle", "both")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_params(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ConfigError(
                f"--params entry {chunk!r} must have the form name=number")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(
                f"--params value for {name!r} must be a number, "
                f"got {value.strip()!r}")
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _number_field(doc: dict, path: str, default=None):
    cur = doc
    parts = path.split(".")
    for p in parts[:-1]:
        cur = cur.get(p, {})
        if not isinstance(cur, dict):
            raise ConfigError(f"field {path} must live in an object")
    if parts[-1] not in cur:
        return default
    val = cur[parts[-1]]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"field {path} must be a number")
    return val


def _scenario_from_args(args) -> tuple[ScenarioParams, float, float]:
    """Returns (params, axis t_max, samples) honoring config and overrides."""
    if bool(args.scenario) == bool(args.config):
        raise ConfigError("give exactly one of --scenario or --config")
    cli_params = _parse_params(args.params)
    split = cli_params.pop("split_fraction", None)

    if args.scenario:
        family = args.scenario
        file_params: dict = {}
        t_max = None
        samples = None
    else:
        doc = _load_json(args.config)
        if "family" not in doc:
            raise ConfigError("missing field: family")
        family = doc["family"]
        file_params = doc.get("params", {})
        if not isinstance(file_params, dict):
            raise ConfigError("field params must be an object")
        t_max = _number_field(doc, "window.t_max")
        samples = _number_field(doc, "window.samples")
        cfg_split = _number_field(doc, "split_fraction")
        if split is None:
            split = cfg_split
        check_keys("the scenario config", doc,
                   ("family", "params", "window", "split_fraction"))
        check_keys("the scenario config's window", doc.get("window", {}),
                   ("t_max", "samples"))

    if not isinstance(family, str) or family not in FAMILIES:
        near = difflib.get_close_matches(str(family), FAMILIES, n=3,
                                         cutoff=0.4)
        if not near:
            near = [n for n in FAMILIES if n.startswith(str(family))]
        hint = f"; did you mean: {', '.join(near)}" if near else ""
        raise ConfigError(
            f"unknown scenario {family!r}{hint}; available: "
            f"{', '.join(BUILT_IN)}")

    merged = dict(file_params)
    merged.update(cli_params)
    params = ScenarioParams(family=family, params=merged,
                            split_fraction=0.0 if split is None else split)

    if args.t_max is not None:
        t_max = args.t_max
    if getattr(args, "samples", None) is not None:
        samples = args.samples
    d_t_max, d_samples = default_window(family)
    if samples is None:
        samples = d_samples
    t_max = window_end(d_t_max if t_max is None else t_max, "t-max")
    return params, t_max, samples


def _oracle_config(args, samples, scale: float) -> PropagatorConfig:
    # PropagatorConfig checks the step and the sample count; without a
    # step the propagator picks one from the profile
    step = None if args.step is None else args.step / scale  # axis units
    return PropagatorConfig(scheme=args.scheme, step=step, samples=samples)


def _write_text(path: str | None, lines) -> None:
    """Write an iterable of text chunks to path, or to stdout."""
    if path is None:
        sys.stdout.writelines(lines)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _serialize(columns: dict, fmt: str, out: str | None) -> None:
    """Write equal-length named arrays in order: CSV row by row, or JSON."""
    names = list(columns)
    rows = zip(*columns.values())
    if fmt == "csv":
        lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
        _write_text(out, chain([",".join(names) + "\n"], lines))
    else:
        # json.dumps(records, indent=1), written 4096 records at a time
        records = (dict(zip(names, map(float, row))) for row in rows)
        blocks = iter(lambda: list(islice(records, 4096)), [])
        chunks = ((",\n" if i else "[\n") + json.dumps(block, indent=1)[2:-2]
                  for i, block in enumerate(blocks))
        _write_text(out, chain(chunks, ["\n]\n"]))


# ---------------------------------------------------------------------------
# run

def _cmd_run(args) -> int:
    params, t_max_axis, samples = _scenario_from_args(args)
    profile = make_scenario(params)
    scale = scenario_time_scale(params)
    t_max_phys = t_max_axis / scale
    config = _oracle_config(args, samples, scale)
    ts = np.linspace(0.0, t_max_phys, config.samples)
    axis_t = scale * ts

    closed = oracle = None
    if args.engine in ("closed_form", "both"):
        a, b = closed_form_series(params, profile, ts)
        closed = Trajectory.from_entries(profile, ts, a, b)
    if args.engine in ("oracle", "both"):
        oracle = propagate(profile, config, t_max_phys)

    tr = closed if closed is not None else oracle
    _serialize({"t": axis_t, "omega_z": tr.omega_z,
                "omega_mag": tr.omega_mag, "phi_omega": tr.phi_omega,
                "detuning": tr.detuning, "re_a": tr.a.real, "im_a": tr.a.imag,
                "re_b": tr.b.real, "im_b": tr.b.imag, "p_flip": tr.p_flip,
                "sigma_x": tr.sigma_x, "sigma_y": tr.sigma_y,
                "sigma_z": tr.sigma_z}, args.format, args.out)

    if args.engine == "both":
        dev = {
            "max_abs_dP": float(np.max(np.abs(closed.p_flip - oracle.p_flip))),
            "max_abs_da": float(np.max(np.abs(closed.a - oracle.a))),
            "max_abs_db": float(np.max(np.abs(closed.b - oracle.b))),
        }
        summary = ("deviation closed_form vs oracle: "
                   f"max|dP|={dev['max_abs_dP']:.3e} "
                   f"max|da|={dev['max_abs_da']:.3e} "
                   f"max|db|={dev['max_abs_db']:.3e}")
        print(summary if args.out else f"# {summary}",
              file=sys.stdout if args.out else sys.stderr)
        if args.out:
            _write_text(args.out + ".deviation.json",
                        [json.dumps(dev, indent=1) + "\n"])
    return 0


# ---------------------------------------------------------------------------
# list-scenarios

def _cmd_list(args) -> int:
    rows = family_summary()
    for row in rows:
        print(f"{row['family']}")
        print(f"  {row['description']}")
        if row["default_t_max"] is not None:
            defaults = ", ".join(f"{k}={v:g}" for k, v in row["defaults"].items())
            print(f"  axis: {row['axis']}; default window: "
                  f"{row['default_t_max']:g} ({DEFAULT_SAMPLES} samples)")
            print(f"  defaults: {defaults}")
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    params, t_max_axis, samples = _scenario_from_args(args)
    profile = make_scenario(params)
    scale = scenario_time_scale(params)
    t_max_phys = t_max_axis / scale

    if args.ansatz:
        if args.ansatz in ANSATZ_NAMES:
            ansatz = named_ansatz(args.ansatz)
        elif os.path.exists(args.ansatz):
            ansatz = load_ansatz_table(args.ansatz)
        else:
            raise ConfigError(
                f"--ansatz {args.ansatz!r} is neither a catalog name "
                f"({', '.join(ANSATZ_NAMES)}) nor a readable table path")
    else:
        ansatz = default_ansatz(params)

    config = _oracle_config(args, samples, scale)
    report = verify_ansatz(ansatz, profile, t_max_phys,
                           tol=args.residual_tol,
                           entries_tol=args.entries_tol,
                           samples=config.samples, config=config)

    def flag(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    print(f"ansatz={report.ansatz_label} profile={report.profile_label} "
          f"window={t_max_axis:g} samples={report.samples}")
    print(f"  residual_max={report.residual_max:.3e} "
          f"(tol {report.residual_tol:.1e}) {flag(report.residual_ok)}")
    print(f"  entries_deviation_max={report.entries_deviation_max:.3e} "
          f"(tol {report.entries_tol:.1e}) {flag(report.entries_ok)}")
    if report.note:
        print(f"  note: {report.note}")
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# modes

def _parse_initial(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(
            "--initial must be four numbers: re_A,im_A,re_B,im_B")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError("--initial components must be numbers")
    return complex(vals[0], vals[1]), complex(vals[2], vals[3])


def _cmd_modes(args) -> int:
    if bool(args.config) == bool(args.coupling):
        raise ConfigError("give exactly one of --config or --coupling")
    if args.config:
        doc = _load_json(args.config)
        spec = coupling_from_config(doc)
    else:
        if args.delta is None:
            raise ConfigError("--delta is required with --coupling")
        spec = coupling_from_config({
            "delta": args.delta,
            "coupling": {"family": args.coupling,
                         "params": _parse_params(args.params)},
        })
    z_max = window_end(args.z_max, "--z-max")

    a0, b0 = _parse_initial(args.initial)
    config = _oracle_config(args, args.samples, 1.0)
    traj = propagate_modes(spec, (a0, b0), z_max, config)

    _serialize({"z": traj.z, "re_A": traj.amp_a.real,
                "im_A": traj.amp_a.imag, "re_B": traj.amp_b.real,
                "im_B": traj.amp_b.imag, "powerA": traj.power_a,
                "powerB": traj.power_b, "total": traj.total_power},
               args.format, args.out)
    if traj.power_scale != 1.0:
        print(f"# input power {traj.power_scale:g} normalized to 1",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genrabi",
        description="Exactly solvable driven two-level dynamics: scenario "
                    "runner, ansatz verifier, coupled-mode front end.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_engine: bool):
        p.add_argument("--scenario", help="built-in family name")
        p.add_argument("--config", help="path to a scenario JSON config")
        p.add_argument("--t-max", type=float, default=None,
                       help="window end on the scenario's dimensionless axis")
        p.add_argument("--samples", type=int, default=None,
                       help="output samples (default per family)")
        p.add_argument("--params", default=None,
                       help="comma-separated name=value overrides; "
                            "split_fraction is accepted here for case1/case2")
        p.add_argument("--step", type=float, default=None,
                       help="oracle substep bound, dimensionless axis units "
                            "(default: automatic, from the profile's fastest "
                            "scale and the scheme's order)")
        p.add_argument("--scheme", choices=list(SCHEMES),
                       default="midpoint_exponential",
                       help="oracle integrator (default: %(default)s)")
        if with_engine:
            p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                           default="closed_form")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--out", default=None,
                           help="output path (default stdout)")

    p_run = sub.add_parser("run", help="evaluate a scenario and export series")
    add_common(p_run, with_engine=True)
    p_run.set_defaults(handler=_cmd_run)

    p_list = sub.add_parser("list-scenarios", help="show the family catalog")
    p_list.set_defaults(handler=_cmd_list)

    p_ver = sub.add_parser("verify",
                           help="check an ansatz against a scenario profile")
    add_common(p_ver, with_engine=False)
    p_ver.add_argument("--ansatz", default=None,
                       help="zero | case1 | case2 | path to a (tau, theta) "
                            "CSV table (default: the family's own ansatz)")
    p_ver.add_argument("--residual-tol", type=float, default=1e-8)
    p_ver.add_argument("--entries-tol", type=float, default=1e-6)
    # the oracle verify_ansatz defaults to
    p_ver.set_defaults(handler=_cmd_verify, scheme="commutator_free_4th")

    p_modes = sub.add_parser("modes", help="coupled-waveguide propagation")
    p_modes.add_argument("--config", help="mode JSON config "
                                          "{delta, coupling:{family, params}}")
    p_modes.add_argument("--coupling", choices=COUPLING_FAMILIES)
    p_modes.add_argument("--delta", type=float, default=None)
    p_modes.add_argument("--params", default=None,
                         help="coupling params, e.g. k0=1")
    p_modes.add_argument("--z-max", type=float, default=None)
    p_modes.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_modes.add_argument("--initial", default="1,0,0,0",
                         help="re_A,im_A,re_B,im_B at z=0")
    p_modes.add_argument("--step", type=float, default=None)
    p_modes.add_argument("--scheme", choices=list(SCHEMES),
                         default="midpoint_exponential")
    p_modes.add_argument("--format", choices=("csv", "json"), default="csv")
    p_modes.add_argument("--out", default=None)
    p_modes.set_defaults(handler=_cmd_modes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every numeric failure is caught by an explicit finiteness check,
        # so numpy's own warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.handler(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except GenrabiError as exc:  # ConfigError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
