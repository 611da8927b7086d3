"""Regenerates the ROADMAP baseline table at catalog defaults.

Figures are medians of a few repetitions on the machine at hand: fresh
interpreter imports, whole CLI processes, closed form and oracle per family
at the default window with 1001 samples, and the Theta route for case1 and
case2.
"""

from __future__ import annotations

import sys

import numpy as np

from . import stats
from .workloads import Context, child_wall, import_breakdown, perf

REPS = 3


def _timed(fn, reps: int = REPS):
    times, result = [], None
    for _ in range(reps):
        t0 = perf()
        result = fn()
        times.append(perf() - t0)
    return stats.median(times), result


def rows(root: str) -> list[tuple[str, str]]:
    from genrabi import propagator, scenarios, theta

    ctx = Context(root, "baseline")
    try:
        out = []
        imp = import_breakdown(ctx, REPS)
        wall = stats.median([child_wall(ctx, [sys.executable, "-c",
                                              "import genrabi.cli"])[0]
                             for _ in range(REPS)])
        out.append(("`import genrabi.cli` (fresh process, -X importtime)",
                    f"{wall:.2f} s wall; genrabi {imp['genrabi']:.3f} s, of "
                    f"which scipy {imp['scipy']:.3f} s, numpy "
                    f"{imp['numpy']:.3f} s"))
        for argv in (["run", "--scenario", "exp_resonant", "--engine", "both"],
                     ["run", "--scenario", "case1"],
                     ["verify", "--scenario", "case1"],
                     ["verify", "--scenario", "case2"]):
            cmd = [sys.executable, "-m", "genrabi.cli", *argv]
            t = stats.median([child_wall(ctx, cmd)[0] for _ in range(REPS)])
            out.append((f"`genrabi {' '.join(argv)}` end to end", f"{t:.2f} s"))

        for fam in scenarios.FAMILIES:
            if fam == "custom":
                continue
            params = scenarios.ScenarioParams(fam)
            profile = scenarios.make_scenario(params)
            t_axis, samples = scenarios.default_window(fam)
            t_max = t_axis / scenarios.scenario_time_scale(params)
            ts = np.linspace(0.0, t_max, samples)
            closed, _ = _timed(lambda: scenarios.closed_form_series(
                params, profile, ts), 5)
            step = propagator.suggested_step(profile, t_max)
            parts = [f"closed form {closed * 1e3:.2f} ms"]
            for scheme, short in (("midpoint_exponential", "midpoint"),
                                  ("commutator_free_4th", "CF4")):
                cfg = propagator.PropagatorConfig(scheme=scheme, step=step,
                                                  samples=samples)
                t, traj = _timed(lambda: propagator.propagate(profile, cfg,
                                                              t_max))
                substeps = round(traj.t[-1] / traj.step)
                parts.append(f"{short} {t * 1e3:.1f} ms "
                             f"({1e9 * t / substeps:.0f} ns/substep)")
            out.append((f"{fam}, default window, {samples} samples, "
                        f"{substeps} substeps", "; ".join(parts)))

        for fam, t_max in (("case1", 50.0), ("case2", 20.0)):
            profile = scenarios.make_scenario(fam)
            ansatz = theta.named_ansatz(fam)
            ver, _ = _timed(lambda: theta.verify_ansatz(ansatz, profile,
                                                        t_max), 2)
            ts = np.linspace(0.0, t_max, 1001)
            ges, _ = _timed(lambda: theta.general_entries_series(
                ansatz, profile, ts), 1)
            out.append((f"Theta route {fam}",
                        f"`verify_ansatz` (257 samples) {ver:.2f} s; "
                        f"`general_entries_series` (1001 samples) "
                        f"{ges:.2f} s"))
        return out
    finally:
        ctx.close()


def table(root: str) -> str:
    lines = ["| what | figure |", "|---|---|"]
    lines += [f"| {what} | {figure} |" for what, figure in rows(root)]
    return "\n".join(lines)
