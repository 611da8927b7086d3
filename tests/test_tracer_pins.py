"""The benchmark tracer still finds every name it patches.

benchmarks/gbench/tracer.py times the package by replacing module and class
attributes of genrabi by name. Installing and restoring it here makes the
removal or renaming of a patched name fail in this suite within a second,
not only in the slower benchmark tests. The tracer source is compiled from
its file, so nothing is written under benchmarks/.

The converse holds too: a pin is either an import of a name the module
neither uses nor exports, on a line marked "# noqa: F401", of a name the
tracer patches on that module, or the marked theta.scipy stand-in, which
the tracer reaches through (theta.scipy.integrate.quad) and which must
import nothing. A stale or unmarked pin fails here, and so does a tracer
that loads scipy: installed in the traced cli_mix child outside every span,
scipy's import would sink that run's coverage below its floor.
"""

import ast
import types
from pathlib import Path

from genrabi import quadrature, theta

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "gbench" / "tracer.py"
PACKAGE = ROOT / "src" / "genrabi"


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


# installs and restores the tracer compiled from the file in argv[1]
INSTALL_ONLY = """
import pathlib, sys, types
module = types.ModuleType("gbench_tracer")
source = pathlib.Path(sys.argv[1]).read_text()
exec(compile(source, sys.argv[1], "exec"), module.__dict__)
tracer = module.Tracer()
try:
    tracer.install()
finally:
    tracer.restore()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_installing_the_tracer_imports_no_scipy(run_python):
    proc = run_python(INSTALL_ONLY, str(TRACER))
    assert proc.returncode == 0, proc.stderr


def _touched(tracer, patches):
    """module name -> names the tracer patches on it or reads through it."""
    out = {}
    for owner, attr, _ in patches:
        if isinstance(owner, types.ModuleType):
            out.setdefault(owner.__name__, set()).add(attr)
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            name = f"genrabi.{node.value.id}"
            out.setdefault(name, set()).add(node.attr)
    return out


def _unused_imports(source):
    """(name, import node) for each module-level import the module neither
    uses nor lists in __all__."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        yield from ((name, node) for name in names if name not in used)


def test_every_unused_import_is_a_marked_tracer_pin():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        touched = _touched(tracer, tracer._patches)
    finally:
        tracer.restore()
    pins = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ("genrabi" if path.stem == "__init__"
                  else f"genrabi.{path.stem}")
        source = path.read_text()
        lines = source.splitlines()
        for name, node in _unused_imports(source):
            where = f"{path.name}:{node.lineno} {name}"
            assert name in touched.get(module, ()), \
                f"{where} is unused and no tracer pin"
            text = "\n".join(lines[node.lineno - 1:node.end_lineno])
            assert "# noqa: F401" in text, f"{where} is an unmarked pin"
            pins.append(where)
    assert pins  # the check sees the pins that exist today


def test_the_patched_stand_ins_stay_weightless():
    # names the tracer patches but nothing calls: bound to None, no body
    assert quadrature.adaptive_quad is None
    assert quadrature.CumulativeIntegral.__dict__["__call__"] is None
    assert theta.scipy.integrate.quad is None
