"""genrabi benchmark.

One run, from the root of a checkout:

    python3 benchmarks/run.py --workload cli_mix --seed 1 --seconds 34 --trace 0

runs one workload (cli_mix, oracle_sweep or theta_verify) as a closed loop
over inputs drawn from the seed, for as many passes over the workload's job
pool as take the given seconds on the reference host, checks every output,
and prints as its last line a JSON object with the keys correct, attempted,
failed and metrics. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the pool once untraced and once traced and reports the per-layer
metrics, writing the spans to ``.bench_out/``.

Everything at once:

    python3 benchmarks/run.py --summary [--seed 1] [--seconds 34]

prints every end-to-end metric of every workload by name and unit, the
parameter ranges, and the baseline table of ROADMAP.md regenerated on this
machine.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from gbench import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

from gbench import workloads  # noqa: E402  (loads numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package() -> None:
    """Import genrabi from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "genrabi", "__init__.py")):
        print(f"benchmark: no genrabi sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    try:
        import genrabi
    except ImportError as exc:
        print(f"benchmark: cannot import genrabi: {exc}", file=sys.stderr)
        sys.exit(2)
    if os.path.dirname(os.path.abspath(genrabi.__file__)) \
            != os.path.join(SRC, "genrabi"):
        print(f"benchmark: genrabi resolved to {genrabi.__file__}, not "
              f"{SRC}", file=sys.stderr)
        sys.exit(2)


def _summary(seed: int, seconds: int) -> None:
    from gbench import baseline, inputs

    print(f"# genrabi benchmark summary (seed {seed}, {seconds} s per "
          "workload)\n")
    print("| workload | metric | value | unit |")
    print("|---|---|---|---|")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for metric, body in result["metrics"].items():
            print(f"| {name} | {metric} | {body['value']:.6g} | "
                  f"{body['unit']} |")
        print(f"| {name} | fail_frac | "
              f"{result['failed'] / result['attempted']:.6g} | ratio |")
        for line in lines[:-1]:
            print(f"<!-- {line} -->")
    print("\n## Workloads\n")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        for w in json.load(fh)["workloads"]:
            print(f"- `{w['name']}`: {w['why']}")
    print("\n## Parameter ranges (lo, hi)\n")
    for key, ranges in inputs.RANGES.items():
        print(f"- `{key}`: " + ", ".join(f"{k} {lo:g}..{hi:g}"
                                         for k, (lo, hi) in ranges.items()))
    print("\n## Baseline\n")
    print(baseline.table(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload and print all metrics and "
                             "the baseline table")
    args = parser.parse_args(argv)
    if not args.summary and args.workload is None:
        parser.error("give --workload or --summary")
    _import_package()
    if args.summary:
        _summary(args.seed, int(args.seconds))
        return 0
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
