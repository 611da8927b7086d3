"""Tests of the benchmark harness itself.

Run from the repository root with ``python -m pytest benchmarks/tests -q``.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gbench import checks, inputs, stats, workloads  # noqa: E402


def _names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.fixture
def ctx():
    context = workloads.Context(ROOT, "test")
    yield context
    context.close()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_tiny_run_of_each_workload(workload, trace, capsys):
    result = workloads.run(workload, seed=5, seconds=0.1, trace=trace,
                           root=ROOT, tiny=True)
    capsys.readouterr()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _names("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == expected
    for body in result["metrics"].values():
        assert set(body) == {"value", "unit"}
        assert np.isfinite(body["value"])
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(result["metrics"][name]["value"] > 0
                   for name in expected)
    json.dumps(result)


def _generate(workload, seed, directory):
    pool = inputs.POOLS[workload](seed, str(directory))
    files = {name: (directory / name).read_bytes()
             for name in sorted(os.listdir(directory))}
    return json.dumps(pool, sort_keys=True).encode(), files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    assert _generate(workload, 7, first) == _generate(workload, 7, second)
    assert _generate(workload, 8, other) != _generate(workload, 7, first)


def test_draws_stay_inside_their_ranges():
    rng = np.random.default_rng(0)
    for key, ranges in inputs.RANGES.items():
        for d in inputs.draw(rng, key, 5):
            for name, (lo, hi) in ranges.items():
                assert lo <= d[name] <= hi


def test_checker_flags_a_perturbed_oracle_output(ctx):
    job = inputs.oracle_pool(3, ctx.workdir, tiny=True)[6]  # case2
    assert job["family"] == "case2"
    out = workloads.EXECUTE["oracle"](ctx, job, None)
    assert workloads.CHECK["oracle"](ctx, job, out) == []
    traj = out["traj"]
    bent = dataclasses.replace(traj, b=traj.b * (1.0 + 1e-5))
    misses = workloads.CHECK["oracle"](ctx, job, {**out, "traj": bent})
    assert any("case2 law" in m for m in misses)
    assert any("oracle vs closed form" in m for m in misses)
    closed = {**out, "a": out["a"] * (1.0 + 1e-9)}
    misses = workloads.CHECK["oracle"](ctx, job, closed)
    assert any("unitarity" in m for m in misses)


def test_checker_flags_a_perturbed_cli_file(ctx, capsys, monkeypatch):
    job = next(j for j in inputs.cli_pool(3, ctx.workdir, tiny=True)
               if j["cmd"] == "run" and j["format"] == "csv")
    from genrabi.cli import main
    monkeypatch.chdir(ctx.workdir)
    assert main(job["argv"]) == 0
    capsys.readouterr()
    path = ctx.path(job["out"])
    cols = checks.read_table(path, "csv")
    assert checks.cli_run_misses(job, cols, None) == []
    header, *rows = open(path).read().splitlines()
    last = rows[-1].split(",")
    i = header.split(",").index("p_flip")
    last[i] = repr(float(last[i]) + 1e-6)
    with open(path, "w") as fh:
        fh.write("\n".join([header, *rows[:-1], ",".join(last)]) + "\n")
    misses = checks.cli_run_misses(job, checks.read_table(path, "csv"), None)
    assert any("p_flip column" in m for m in misses)


def test_checker_flags_modes_power_drift():
    job = {"coupling": "sech", "k0": 1.0}
    z = np.linspace(0.0, 3.0, 11)
    power_b = np.tanh(z) ** 2
    assert checks.modes_misses(job, z, power_b, np.ones_like(z)) == []
    misses = checks.modes_misses(job, z, power_b, np.ones_like(z) + 1e-9)
    assert any("power drift" in m for m in misses)


def _report(**kw):
    from genrabi.propagator import ConvergenceReport
    base = dict(scheme="commutator_free_4th", nominal_order=4.0,
                observed_order=-1.0, coarse_diff=1e-13, fine_diff=2e-13,
                within_tolerance=False)
    return ConvergenceReport(**{**base, **kw})


def test_richardson_check_on_exact_and_smooth_families():
    # exact family: an order estimate on round-off is a tallied mislabel
    assert checks.richardson_misses("constant_beta0", _report()) == ([], True)
    misses, _ = checks.richardson_misses("constant_beta0",
                                         _report(fine_diff=1e-8))
    assert any("refinements differ" in m for m in misses)
    # truncation error present: the order gate applies
    misses, mislabel = checks.richardson_misses("case2", _report())
    assert misses and not mislabel
    assert checks.richardson_misses(
        "case2", _report(observed_order=4.1, within_tolerance=True)) \
        == ([], False)


def test_rabi_midpoint_shortfall_is_tallied_and_gross_errors_fail():
    params = {"omega_z0": 0.3, "omega_mag0": 1.0, "phi_dot0": 0.0}
    x = np.linspace(0.0, 10.0, 101)
    p = checks.flip_law("rabi", params, x)
    b_closed = np.sqrt(p).astype(complex)
    a = np.sqrt(1.0 - p).astype(complex)

    def run(scheme, shift):
        q = np.clip(p + shift, 0.0, 1.0)
        return checks.oracle_misses("rabi", scheme, params, x, b_closed,
                                    np.sqrt(1.0 - q), np.sqrt(q))

    assert run("midpoint_exponential", 0.0) == ([], False)
    assert run("midpoint_exponential", 2e-6) == ([], True)
    misses, _ = run("commutator_free_4th", 2e-6)
    assert any("oracle vs closed form" in m for m in misses)
    misses, _ = run("midpoint_exponential", 2e-5)
    assert any("rabi law" in m for m in misses)


def test_table_area_is_the_exact_integral():
    nodes, values = [0.0, 1.0, 3.0], [1.0, 3.0, 0.0]
    z = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
    expected = [0.0, 0.5 * (1.0 + 2.0) / 2.0, 2.0, 2.0 + (3.0 + 1.5) / 2.0,
                5.0, 5.0]
    assert np.allclose(checks.table_area(z, nodes, values), expected)


@pytest.mark.parametrize("n, rank", [(1, 0), (5, 4), (11, 0), (12, 1),
                                     (40, 29), (351, 340)])
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert stats.tail_index(n) == rank
    if n > stats.TAIL_BEYOND:
        assert n - 1 - rank == stats.TAIL_BEYOND


def test_tail_reports_value_percentile_and_count():
    values = list(range(40, 0, -1))  # 1..40, shuffled order irrelevant
    value, pct, n = stats.tail(values)
    assert (value, n) == (30, 40)
    assert pct == pytest.approx(75.0)


def test_parse_importtime_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:        40 |         70 |   scipy.integrate",
        "import time:         5 |        225 | genrabi",
    ])
    out = workloads.parse_importtime(text)
    assert out == pytest.approx({"genrabi": 225e-6, "numpy": 150e-6,
                                 "scipy": 70e-6})
