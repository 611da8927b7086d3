"""Spans and counters recorded from outside the package.

A traced pass replaces public module attributes of ``genrabi`` (and a few
class attributes) with wrappers, runs the jobs, and restores every original
afterwards. Spans are kept in memory as ``[name, start, end, parent, job,
points]`` lists and written out once the run ends. High-frequency calls
(quadrature, Theta evaluator methods, coupling callbacks) only bump
counters, so tracing stays cheap.

This module imports nothing heavy at load time: the traced CLI child loads
it before it times ``import genrabi.cli``.
"""

from __future__ import annotations

import time

perf = time.perf_counter

NAME, START, END, PARENT, JOB, POINTS = range(6)

QUAD_TIME = "quadrature.s"


class Tracer:
    """Span stack plus named counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._quad_depth = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, points: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf(), 0.0, parent, self.job, points])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float,
                 parent: int = -1) -> int:
        self.spans.append([name, start, end, parent, self.job, 0])
        return len(self.spans) - 1

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0.0), float(value))

    def merge(self, other: dict, parent: int) -> None:
        """Adopt a child process's dump under the span ``parent``."""
        offset = len(self.spans)
        for name, start, end, par, _, points in other["spans"]:
            self.spans.append([name, start, end,
                               par + offset if par >= 0 else parent,
                               self.job, points])
        for k, v in other["counters"].items():
            self.count(k, v)
        for k, v in other["maxima"].items():
            self.note_max(k, v)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "maxima": self.maxima}

    # -- wrappers ----------------------------------------------------------

    def traced(self, name: str, fn, post=None):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            return post(result) if post is not None else result
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def quadrature(self, name: str, fn):
        """Count calls; time only the outermost quadrature call."""
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            if self._quad_depth:
                self._quad_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._quad_depth -= 1
            self._quad_depth = 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._quad_depth = 0
                self.count(QUAD_TIME, perf() - t0)
        return wrapper

    def wrap_profile(self, profile):
        """The same FieldProfile with every callable inside a span."""
        import dataclasses

        def ev(fn):
            if fn is None:
                return None

            def wrapper(t):
                idx = self.begin("profile.eval", getattr(t, "size", 1))
                try:
                    return fn(t)
                finally:
                    self.end(idx)
            return wrapper

        return dataclasses.replace(
            profile, omega_z=ev(profile.omega_z),
            omega_mag=ev(profile.omega_mag), phi_omega=ev(profile.phi_omega),
            phi_omega_dot=ev(profile.phi_omega_dot),
            tau_of_t=ev(profile.tau_of_t))

    def wrap_coupling(self, spec):
        import dataclasses
        return dataclasses.replace(
            spec, k_ab=self.counted("modes.coupling_calls", spec.k_ab))

    def _after_propagate(self, traj):
        self.count("propagator.substeps", round(traj.t[-1] / traj.step))
        self.note_max("propagator.drift_max", traj.unitarity_drift)
        return traj

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap genrabi's public names wherever the package looks them up."""
        from genrabi import (cli, closed_forms, fields, modes, propagator,
                             quadrature, scenarios, theta)

        spans = (
            ("scenarios.make_scenario", scenarios, "make_scenario",
             (scenarios, cli), self.wrap_profile),
            ("scenarios.closed_form_series", scenarios, "closed_form_series",
             (scenarios, cli), None),
            ("closed_forms.case1_series", closed_forms, "case1_series",
             (closed_forms, scenarios), None),
            ("fields.transverse_area_series", fields,
             "transverse_area_series", (fields, closed_forms, theta), None),
            ("fields.detuning", fields, "detuning",
             (fields, closed_forms, theta, propagator), None),
            ("theta.verify_ansatz", theta, "verify_ansatz", (theta, cli),
             None),
            ("theta.general_entries_series", theta, "general_entries_series",
             (theta,), None),
            ("theta.named_ansatz", theta, "named_ansatz", (theta, cli), None),
            ("theta.load_ansatz_table", theta, "load_ansatz_table",
             (theta, cli), None),
            ("propagator.propagate", propagator, "propagate",
             (propagator, theta, modes, cli), self._after_propagate),
            ("propagator.suggested_step", propagator, "suggested_step",
             (propagator, theta, modes, cli), None),
            ("propagator.richardson_check", propagator, "richardson_check",
             (propagator,), None),
            ("modes.propagate_modes", modes, "propagate_modes", (modes, cli),
             None),
            ("modes.to_su2_profile", modes, "to_su2_profile", (modes, cli),
             self.wrap_profile),
            ("modes.coupling_from_config", modes, "coupling_from_config",
             (modes, cli), self.wrap_coupling),
        )
        for name, home, attr, owners, post in spans:
            wrapper = self.traced(name, getattr(home, attr), post)
            for owner in owners:
                self.patch(owner, attr, wrapper)

        traj_cls = propagator.Trajectory
        from_entries = traj_cls.__dict__["from_entries"].__func__
        self.patch(traj_cls, "from_entries", classmethod(
            self.traced("observables.from_entries", from_entries)))

        quad = self.quadrature("quadrature.adaptive_quad_calls",
                               quadrature.adaptive_quad)
        for owner in (quadrature, closed_forms, theta):
            self.patch(owner, "adaptive_quad", quad)
        cum = quadrature.CumulativeIntegral
        self.patch(cum, "__call__", self.quadrature(
            "quadrature.cumulative_calls", cum.__dict__["__call__"]))
        # theta calls scipy.integrate.quad directly for tiny tau
        integrate = theta.scipy.integrate
        self.patch(integrate, "quad", self.quadrature(
            "quadrature.scipy_quad_calls", integrate.quad))

        ev = theta.ThetaEvaluator
        for method in ("detuning_ratio", "phi_int", "r_int"):
            self.patch(ev, method, self.counted(f"theta.{method}_calls",
                                                ev.__dict__[method]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation

def layer_times(spans: list) -> dict:
    """Per span name: total and self seconds, call count and points.

    Self time is a span's duration minus its direct children's durations
    (one thread, so children never overlap).
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    out: dict[str, dict] = {}
    for i, sp in enumerate(spans):
        dur = sp[END] - sp[START]
        row = out.setdefault(sp[NAME], {"total": 0.0, "self": 0.0,
                                        "calls": 0, "points": 0})
        row["total"] += dur
        row["self"] += dur - child[i]
        row["calls"] += 1
        row["points"] += sp[POINTS]
    return out


def under(spans: list, name: str, parent_name: str) -> tuple[float, int]:
    """(seconds, points) of ``name`` spans whose direct parent is a
    ``parent_name`` span."""
    secs, points = 0.0, 0
    for sp in spans:
        par = sp[PARENT]
        if sp[NAME] == name and par >= 0 and spans[par][NAME] == parent_name:
            secs += sp[END] - sp[START]
            points += sp[POINTS]
    return secs, points


def coverage(spans: list, job_name: str = "job") -> float:
    """Share of job wall time spent inside the jobs' direct child spans."""
    jobs = {i for i, sp in enumerate(spans) if sp[NAME] == job_name}
    wall = sum(spans[i][END] - spans[i][START] for i in jobs)
    inside = sum(sp[END] - sp[START] for sp in spans if sp[PARENT] in jobs)
    return inside / wall if wall > 0 else 0.0
