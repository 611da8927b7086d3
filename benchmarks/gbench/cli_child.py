"""Run one genrabi CLI invocation under the tracer.

Used by the traced cli_mix pass in place of ``python -m genrabi.cli``:

    python benchmarks/gbench/cli_child.py SPANS_JSON SPAWN_TIME ARGV...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before the spawn
(a system-wide monotonic clock on Linux), so interpreter start-up becomes a
span of its own. The child times ``import genrabi.cli``, installs the
tracer's wrappers, calls ``genrabi.cli.main(ARGV)`` and writes its spans and
counters to SPANS_JSON, with the time it began to exit. Its exit code is
the CLI's.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from gbench.tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, spawn_t, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.add_span("interp.startup", spawn_t, time.perf_counter())
    idx = tracer.begin("import.genrabi_cli")
    import genrabi.cli
    tracer.end(idx)
    tracer.install()
    idx = tracer.begin("cli.main")
    try:
        code = genrabi.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.end(idx)
        tracer.restore()
    # what follows, interpreter shutdown included, is the parent's
    # "interp.exit" span
    dump = tracer.dump()
    dump["exit_start"] = time.perf_counter()
    with open(out_path, "w") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
