"""The benchmark tracer still finds every name it patches.

benchmarks/gbench/tracer.py times the package by replacing module and class
attributes of genrabi by name. Installing and restoring it here makes the
removal or renaming of a patched name fail in this suite within a second,
not only in the slower benchmark tests. The tracer source is compiled from
its file, so nothing is written under benchmarks/.
"""

import types
from pathlib import Path

TRACER = (Path(__file__).resolve().parents[1] / "benchmarks" / "gbench"
          / "tracer.py")


def _tracer_module():
    module = types.ModuleType("gbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_installs_and_restores_every_patched_name():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, (owner, attr)
