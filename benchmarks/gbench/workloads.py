"""The three workloads: job execution, closed loops and metrics.

Every workload is a closed loop with one client: the next job starts when
the previous one has finished and been checked. Job latency covers only the
calls into genrabi (or the whole CLI process); the output checks run between
jobs, outside the clock. End-to-end metrics come from untraced runs only. A
traced run executes the pool once untraced and once traced, both as fixed
work, so every per-layer count repeats exactly for a given seed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from . import THREAD_VARS, checks, inputs, stats
from .tracer import END, QUAD_TIME, Tracer, coverage, layer_times, under

perf = time.perf_counter

WORKLOADS = ("cli_mix", "oracle_sweep", "theta_verify")

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))

PER_LAYER = (
    ("import.genrabi_cli_s", "s"), ("import.scipy_s", "s"),
    ("import.numpy_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("scenarios.make_scenario_s", "s"),
    ("scenarios.closed_form_series_s", "s"),
    ("observables.from_entries_s", "s"),
    ("closed_forms.case1_series_s", "s"),
    ("quadrature.adaptive_quad_calls", "count"),
    ("quadrature.cumulative_calls", "count"), ("quadrature.s", "s"),
    ("fields.transverse_area_series_s", "s"), ("fields.detuning_s", "s"),
    ("theta.verify_ansatz_s", "s"), ("theta.general_entries_series_s", "s"),
    ("theta.detuning_ratio_calls", "count"), ("theta.phi_int_calls", "count"),
    ("theta.r_int_calls", "count"),
    ("propagator.propagate_s", "s"), ("propagator.substeps", "count"),
    ("propagator.profile_eval_s", "s"),
    ("propagator.profile_eval_points", "count"),
    ("propagator.self_s", "s"), ("propagator.ns_per_substep", "ns"),
    ("propagator.suggested_step_s", "s"),
    ("propagator.richardson_check_s", "s"),
    ("propagator.err_max", "1"), ("propagator.drift_max", "1"),
    ("modes.propagate_modes_s", "s"), ("modes.to_su2_profile_s", "s"),
    ("modes.coupling_calls", "count"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)

# Seconds one pass over a workload's pool takes on the reference host (2
# vCPUs at 2.1 GHz, whose speed varies by about 30% from minute to
# minute); a run makes round(--seconds / this) passes, at least one, so its
# work does not depend on how fast the host happens to be.
PASS_SECONDS = {"cli_mix": 24.0, "oracle_sweep": 24.0, "theta_verify": 17.0}
IMPORT_REPS = 5        # fresh-interpreter imports per set-up measurement
GEN_REPS = 3           # input generations per set-up measurement
IMPORTTIME_REPS = 3    # -X importtime children per traced run
CHILD_TIMEOUT = 120.0  # seconds; a CLI job that hangs counts as failed
MAX_REPORTED = 5       # failing jobs echoed to stderr per run

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "cli_child.py")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("GRS_DEFAULT_SCHEME", None)  # keep the documented default scheme
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Context:
    """Work directory, child environment and per-run tallies."""

    def __init__(self, root: str, workload: str):
        self.root = root
        self.src = os.path.join(root, "src")
        tmp = os.path.join(root, ".bench_tmp")
        os.makedirs(tmp, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp)
        self.env = child_env(self.src)
        self.err_max = 0.0
        self.bytes_out = 0
        self.reported = 0
        # checks.KNOWN_DEFECTS key -> [occurrences, jobs that could show it]
        self.known = {key: [0, 0] for key in checks.KNOWN_DEFECTS}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def tally(self, key: str, hit: bool) -> None:
        self.known[key][0] += hit
        self.known[key][1] += 1

    def report(self, i: int, job: dict, misses: list[str]) -> None:
        if self.reported < MAX_REPORTED:
            label = job.get("family") or job.get("coupling") or job.get("cmd")
            print(f"job {i} ({job['kind']} {label}) failed: "
                  f"{'; '.join(misses)}", file=sys.stderr)
        self.reported += 1


# ---------------------------------------------------------------------------
# cli_mix jobs

def _cli_prepare(ctx: Context, job: dict) -> None:
    # a job must never pass on a file left by an earlier pass
    if "out" in job:
        for name in (job["out"], job["out"] + ".deviation.json"):
            if os.path.exists(ctx.path(name)):
                os.remove(ctx.path(name))


def _cli_run(ctx: Context, job: dict, tracer: Tracer | None):
    if tracer is None:
        argv = [sys.executable, "-m", "genrabi.cli", *job["argv"]]
    else:
        argv = [sys.executable, CHILD, ctx.path("spans.json"),
                repr(perf()), *job["argv"]]
    return subprocess.run(argv, cwd=ctx.workdir, env=ctx.env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


def _cli_check(ctx: Context, job: dict, proc) -> list[str]:
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {proc.returncode}: {tail[0]}"]
    ctx.bytes_out += len(proc.stdout.encode())
    if job["cmd"] == "list":
        return checks.cli_list_misses(proc.stdout, inputs.FAMILIES)
    path = ctx.path(job["out"])
    ctx.bytes_out += os.path.getsize(path)
    cols = checks.read_table(path, job["format"])
    if job["cmd"] == "modes":
        return checks.cli_modes_misses(job, cols)
    deviation = None
    if job["engine"] == "both" and os.path.exists(path + ".deviation.json"):
        ctx.bytes_out += os.path.getsize(path + ".deviation.json")
        with open(path + ".deviation.json") as fh:
            deviation = json.load(fh)
        ctx.err_max = max(ctx.err_max, deviation["max_abs_da"],
                          deviation["max_abs_db"])
    return checks.cli_run_misses(job, cols, deviation)


def _cli_adopt(ctx: Context, tracer: Tracer, job_span: int) -> None:
    path = ctx.path("spans.json")
    if os.path.exists(path):
        with open(path) as fh:
            dump = json.load(fh)
        os.remove(path)
        tracer.merge(dump, job_span)
        tracer.add_span("interp.exit", dump["exit_start"],
                        tracer.spans[job_span][END], job_span)


# ---------------------------------------------------------------------------
# in-process jobs

def _scenario(job: dict):
    from genrabi import scenarios
    params = scenarios.ScenarioParams(job["family"], job["params"],
                                      job["split"])
    scale = inputs.axis_scale(job["family"], job["params"])
    x = np.linspace(0.0, job["window"], job["samples"])
    return params, x, x / scale, job["window"] / scale


def _oracle_run(ctx: Context, job: dict, tracer):
    from genrabi import propagator, scenarios
    params, x, ts, t_max = _scenario(job)
    profile = scenarios.make_scenario(params)
    a, b = scenarios.closed_form_series(params, profile, ts)
    step = propagator.suggested_step(profile, t_max)
    traj = propagator.propagate(
        profile, propagator.PropagatorConfig(scheme=job["scheme"], step=step,
                                             samples=job["samples"]), t_max)
    report = None
    if job["richardson"]:
        report = propagator.richardson_check(
            profile, propagator.PropagatorConfig(
                scheme=job["scheme"],
                step=step * inputs.RICHARDSON_STEP[job["scheme"]],
                samples=inputs.RICHARDSON_SAMPLES), t_max)
    return {"x": x, "a": a, "b": b, "traj": traj, "report": report}


def _oracle_check(ctx: Context, job: dict, out: dict) -> list[str]:
    fam, params, traj = job["family"], job["params"], out["traj"]
    misses = checks.entries_misses("closed form", fam, params, out["x"],
                                   out["a"], out["b"], checks.TOL_CLOSED_LAW)
    ctx.err_max = max(ctx.err_max, checks.max_deviation(
        out["a"], out["b"], traj.a, traj.b))
    found, shortfall = checks.oracle_misses(fam, job["scheme"], params,
                                            out["x"], out["b"], traj.a, traj.b)
    misses += found
    if (fam, job["scheme"]) == checks.RABI_MIDPOINT:
        ctx.tally("rabi_midpoint", shortfall)
    if out["report"] is not None:
        found, mislabel = checks.richardson_misses(fam, out["report"])
        misses += found
        if fam in checks.EXACT_FAMILIES:
            ctx.tally("richardson_exact", mislabel)
    return misses


def _modes_run(ctx: Context, job: dict, tracer):
    from genrabi import modes, propagator
    if job["coupling"] == "sech":
        coupling = {"family": "sech", "params": {"k0": job["k0"]}}
    else:
        coupling = {"family": "custom_table",
                    "params": {"path": ctx.path(job["table"]["path"])}}
    spec = modes.coupling_from_config({"delta": job["delta"],
                                       "coupling": coupling})
    z_max = job["window"]
    profile = modes.to_su2_profile(spec, window=z_max)
    config = propagator.PropagatorConfig(
        step=propagator.suggested_step(profile, z_max),
        samples=job["samples"])
    return modes.propagate_modes(spec, (1.0, 0.0), z_max, config)


def _modes_check(ctx: Context, job: dict, out) -> list[str]:
    return checks.modes_misses(job, out.z, out.power_b, out.total_power)


def _verify_run(ctx: Context, job: dict, tracer):
    from genrabi import scenarios, theta
    params, _, _, t_max = _scenario(job)
    profile = scenarios.make_scenario(params)
    if job["ansatz"] in ("case1", "case2"):
        ansatz = theta.named_ansatz(job["ansatz"])
    else:
        ansatz = theta.load_ansatz_table(ctx.path(job["ansatz"]))
    # the CLI's rule: quadrature two decades below the strictest check
    quad_tol = max(1e-12, 1e-2 * min(job["tol"], job["entries_tol"]))
    return theta.verify_ansatz(ansatz, profile, t_max, tol=job["tol"],
                               entries_tol=job["entries_tol"],
                               samples=job["samples"], quad_tol=quad_tol)


def _verify_check(ctx: Context, job: dict, rep) -> list[str]:
    if job["ansatz"] in ("case1", "case2"):  # a table's figure is its sampling
        ctx.err_max = max(ctx.err_max, rep.entries_deviation_max)
    if rep.passed:
        return []
    return [f"verify {job['family']} ansatz {rep.ansatz_label}: residual "
            f"{rep.residual_max:.2e} (tol {rep.residual_tol:g}), entries "
            f"{rep.entries_deviation_max:.2e} (tol {rep.entries_tol:g}) "
            f"{rep.note}".rstrip()]


def _entries_run(ctx: Context, job: dict, tracer):
    from genrabi import scenarios, theta
    params, x, ts, _ = _scenario(job)
    profile = scenarios.make_scenario(params)
    a, b = theta.general_entries_series(theta.named_ansatz(job["family"]),
                                        profile, ts)
    return {"x": x, "a": a, "b": b}


def _closed_run(ctx: Context, job: dict, tracer):
    from genrabi import scenarios
    params, x, ts, _ = _scenario(job)
    profile = scenarios.make_scenario(params)
    a, b = scenarios.closed_form_series(params, profile, ts)
    return {"x": x, "a": a, "b": b}


def _series_check(ctx: Context, job: dict, out: dict) -> list[str]:
    return checks.entries_misses(f"{job['kind']} {job['family']}",
                                 job["family"], job["params"], out["x"],
                                 out["a"], out["b"], checks.TOL_CLOSED_LAW)


EXECUTE = {"cli": _cli_run, "oracle": _oracle_run, "modes": _modes_run,
           "verify": _verify_run, "entries": _entries_run,
           "closed": _closed_run}
CHECK = {"cli": _cli_check, "oracle": _oracle_check, "modes": _modes_check,
         "verify": _verify_check, "entries": _series_check,
         "closed": _series_check}


# ---------------------------------------------------------------------------
# loops

def run_job(ctx: Context, i: int, job: dict,
            tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """Execute and check one job: (latency in s, misses)."""
    if job["kind"] == "cli":
        _cli_prepare(ctx, job)
    span = None
    if tracer is not None:
        tracer.job = i
        span = tracer.begin("job")
    t0 = perf()
    try:
        out = EXECUTE[job["kind"]](ctx, job, tracer)
        misses = None
    except Exception as exc:  # a failing job is counted, never fatal
        misses = [f"{type(exc).__name__}: {exc}"]
    latency = perf() - t0
    if tracer is not None:
        tracer.end(span)
        if job["kind"] == "cli":
            _cli_adopt(ctx, tracer, span)
    if misses is None:
        try:
            misses = CHECK[job["kind"]](ctx, job, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            misses = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if misses:
        ctx.report(i, job, misses)
    return latency, misses


def closed_loop(ctx: Context, pool: list[dict], passes: int,
                probe=None, probes: int = 0):
    """Run the pool ``passes`` times over, one job after another.

    Every run of a workload thus measures the same work, each pool job
    equally often. ``probe`` (a set-up measurement) is called ``probes``
    times, spread evenly over the jobs and outside the job clock, so slow
    drift in machine speed affects set-up and job figures alike. Returns
    (latencies, failed count, probe results).
    """
    latencies, failed, samples = [], 0, []
    total = passes * len(pool)
    for i in range(total):
        while len(samples) < probes and i >= len(samples) * total / probes:
            samples.append(probe())
        latency, misses = run_job(ctx, i % len(pool), pool[i % len(pool)])
        latencies.append(latency)
        failed += bool(misses)
    while len(samples) < probes:
        samples.append(probe())
    return latencies, failed, samples


def one_pass(ctx: Context, pool: list[dict], tracer: Tracer | None = None):
    """Every pool job once: (total latency, failed count)."""
    total, failed = 0.0, 0
    for i, job in enumerate(pool):
        latency, misses = run_job(ctx, i, job, tracer)
        total += latency
        failed += bool(misses)
    return total, failed


# ---------------------------------------------------------------------------
# set-up and imports

def child_wall(ctx: Context, argv: list[str]) -> tuple[float, str]:
    t0 = perf()
    proc = subprocess.run(argv, cwd=ctx.workdir, env=ctx.env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    wall = perf() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed: "
                           f"{proc.stderr.strip()[-300:]}")
    return wall, proc.stderr


def generation_seconds(ctx: Context, workload: str, seed: int, reps: int,
                       tiny: bool) -> tuple[float, list[dict]]:
    times = []
    for _ in range(reps):
        t0 = perf()
        pool = inputs.POOLS[workload](seed, ctx.workdir, tiny)
        times.append(perf() - t0)
    return stats.median(times), pool


def parse_importtime(text: str, packages=("genrabi", "scipy", "numpy")):
    """Seconds per package from ``-X importtime`` output.

    A package's figure is the cumulative time of its outermost entries:
    entries of the package nested inside another entry of the same package
    are already part of that entry's cumulative time.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(),
                     int(parts[1])))
    out = {}
    for pkg in packages:
        total = 0
        stack: list[tuple[int, bool]] = []
        # the report is post-order; reversed, every parent precedes its
        # children
        for depth, name, cumulative in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            mine = name == pkg or name.startswith(pkg + ".")
            if mine and not any(flag for _, flag in stack):
                total += cumulative
            stack.append((depth, mine))
        out[pkg] = total * 1e-6
    return out


def import_breakdown(ctx: Context, reps: int) -> dict:
    argv = [sys.executable, "-X", "importtime", "-c", "import genrabi.cli"]
    runs = [parse_importtime(child_wall(ctx, argv)[1]) for _ in range(reps)]
    return {k: stats.median([r[k] for r in runs]) for k in runs[0]}


# ---------------------------------------------------------------------------
# metrics

def _print_known_defects(ctx: Context) -> None:
    """Defects of the package that its outputs survive, so no job fails."""
    for key, (hits, jobs) in ctx.known.items():
        if jobs:
            print(f"known defect: {checks.KNOWN_DEFECTS[key]} in {hits} of "
                  f"{jobs} jobs")


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(ctx: Context, tracer: Tracer, imports: dict,
                  untraced_s: float, traced_s: float) -> dict:
    lt = layer_times(tracer.spans)

    def total(name):
        return lt.get(name, {}).get("total", 0.0)

    def self_s(name):
        return lt.get(name, {}).get("self", 0.0)

    c = tracer.counters
    substeps = c.get("propagator.substeps", 0)
    prof_s, prof_points = under(tracer.spans, "profile.eval",
                                "propagator.propagate")
    values = {
        "import.genrabi_cli_s": imports["genrabi"],
        "import.scipy_s": imports["scipy"],
        "import.numpy_s": imports["numpy"],
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_out": ctx.bytes_out,
        "scenarios.make_scenario_s": total("scenarios.make_scenario"),
        "scenarios.closed_form_series_s":
            total("scenarios.closed_form_series"),
        "observables.from_entries_s": total("observables.from_entries"),
        "closed_forms.case1_series_s": total("closed_forms.case1_series"),
        "quadrature.adaptive_quad_calls":
            c.get("quadrature.adaptive_quad_calls", 0),
        "quadrature.cumulative_calls": c.get("quadrature.cumulative_calls", 0),
        "quadrature.s": c.get(QUAD_TIME, 0.0),
        "fields.transverse_area_series_s":
            total("fields.transverse_area_series"),
        "fields.detuning_s": total("fields.detuning"),
        "theta.verify_ansatz_s": total("theta.verify_ansatz"),
        "theta.general_entries_series_s":
            total("theta.general_entries_series"),
        "theta.detuning_ratio_calls": c.get("theta.detuning_ratio_calls", 0),
        "theta.phi_int_calls": c.get("theta.phi_int_calls", 0),
        "theta.r_int_calls": c.get("theta.r_int_calls", 0),
        "propagator.propagate_s": total("propagator.propagate"),
        "propagator.substeps": substeps,
        "propagator.profile_eval_s": prof_s,
        "propagator.profile_eval_points": prof_points,
        "propagator.self_s": self_s("propagator.propagate"),
        "propagator.ns_per_substep":
            1e9 * self_s("propagator.propagate") / substeps
            if substeps else 0.0,
        "propagator.suggested_step_s": total("propagator.suggested_step"),
        "propagator.richardson_check_s": total("propagator.richardson_check"),
        "propagator.err_max": ctx.err_max,
        "propagator.drift_max": tracer.maxima.get("propagator.drift_max",
                                                  0.0),
        "modes.propagate_modes_s": total("modes.propagate_modes"),
        "modes.to_su2_profile_s": total("modes.to_su2_profile"),
        "modes.coupling_calls": c.get("modes.coupling_calls", 0),
        "trace.coverage": coverage(tracer.spans),
        "trace.overhead": traced_s / untraced_s - 1.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# entry point

def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result object run.py prints last.

    ``tiny`` shrinks inputs and repetitions for the benchmark's own smoke
    tests.
    """
    ctx = Context(root, workload)
    try:
        return _run(ctx, workload, seed, seconds, trace, tiny)
    finally:
        ctx.close()


def _run(ctx: Context, workload: str, seed: int, seconds: float, trace: bool,
         tiny: bool) -> dict:
    if workload == "cli_mix":
        gen, pool = 0.0, inputs.cli_pool(seed, ctx.workdir, tiny)
        module = "genrabi.cli"
    else:
        gen, pool = generation_seconds(ctx, workload, seed,
                                       1 if tiny else GEN_REPS, tiny)
        module = "genrabi"
    if trace:
        return _traced(ctx, workload, seed, pool, tiny)

    # set-up: a fresh interpreter importing the package (cli_mix pays it in
    # every job), plus input generation for the in-process workloads
    argv = [sys.executable, "-c", f"import {module}"]
    child_wall(ctx, argv)  # unmeasured warm-up: byte-code and file caches
    if workload != "cli_mix":
        # unmeasured warm-up of the modules genrabi loads on first use; a
        # job that fails here fails again, counted, in the loop
        try:
            EXECUTE[pool[0]["kind"]](ctx, pool[0], None)
        except Exception:
            pass
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    latencies, failed, imports = closed_loop(
        ctx, pool, passes, lambda: child_wall(ctx, argv)[0],
        1 if tiny else IMPORT_REPS)
    n = len(latencies)
    tail_value, tail_pct, _ = stats.tail(latencies)
    print(f"{workload}: {n} jobs in {sum(latencies):.3f} s of job time "
          f"({passes} x a pool of {len(pool)}); tail = p{tail_pct:.1f} of "
          f"{n} samples; fail_frac = {failed}/{n}")
    _print_known_defects(ctx)
    values = {
        "setup_s": stats.median(imports) + gen,
        "jobs_per_s": n / sum(latencies),
        "job_p50_s": stats.median(latencies),
        "job_tail_s": tail_value,
        "peak_rss_mb": _peak_rss_mb(workload),
        "ok_frac": (n - failed) / n,
    }
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END}}


def _traced(ctx: Context, workload: str, seed: int, pool: list[dict],
            tiny: bool) -> dict:
    imports = import_breakdown(ctx, 1 if tiny else IMPORTTIME_REPS)
    untraced_s, _ = one_pass(ctx, pool)
    ctx.err_max = 0.0
    ctx.bytes_out = 0
    tracer = Tracer()
    if workload != "cli_mix":
        tracer.install()
    try:
        traced_s, failed = one_pass(ctx, pool, tracer)
    finally:
        tracer.restore()
    metrics = layer_metrics(ctx, tracer, imports, untraced_s, traced_s)
    out_dir = os.path.join(ctx.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{workload}-seed{seed}.json"),
              "w") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": pool,
                   **tracer.dump(), "metrics": metrics}, fh)
    print(f"{workload} traced: {len(pool)} jobs, {len(tracer.spans)} spans, "
          f"coverage {metrics['trace.coverage']['value']:.3f}, "
          f"fail_frac = {failed}/{len(pool)}")
    _print_known_defects(ctx)
    return {"correct": failed == 0, "attempted": len(pool), "failed": failed,
            "metrics": metrics}
