"""The benchmark's tracer must find every name it wraps, and put each back.

``perfbench/tracing.py`` replaces package functions under the module
attributes their callers look them up by.  A refactor that moves or renames
one of them breaks the benchmark's per-layer metrics; this test names it.
The tracer's source is read, not imported, so nothing under ``perfbench/``
is written.

A name a package module imports but never uses is there only for the
tracer to wrap; any other such name is a leftover, and is reported here.
Each such import says so on its line, and no used import does.
"""

import ast
import types
from pathlib import Path

import mechverify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    sources = [
        source
        for table in (tracing.SPANS, tracing.COUNTED_CALLS)
        for lookups in table.values()
        for source in lookups
    ]
    originals = {}
    for module_name, attribute in sources:
        owner, name = tracing._resolve(module_name, attribute)
        assert hasattr(owner, name), f"{module_name}.{attribute} does not resolve"
        originals[(module_name, attribute)] = (owner, name, getattr(owner, name))

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module_name, attribute), (owner, name, original) in originals.items():
            assert getattr(owner, name) is not original, f"{module_name}.{attribute} not wrapped"
    finally:
        tracer.remove()
    for (module_name, attribute), (owner, name, original) in originals.items():
        assert getattr(owner, name) is original, f"{module_name}.{attribute} not restored"


def unused_imports(path):
    """The names the module at ``path`` imports but never loads."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - loaded


def test_unused_imports_are_traced_names():
    tracing = load_tracing()
    traced = {
        source
        for table in (tracing.SPANS, tracing.COUNTED_CALLS)
        for lookups in table.values()
        for source in lookups
    }
    unused = {
        (f"mechverify.{path.stem}", name)
        for path in Path(mechverify.__file__).parent.glob("*.py")
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert not unused - traced, f"imported but never used: {sorted(unused - traced)}"


MARKER = "perfbench/tracing.py wraps it"


def marked_imports(path):
    """The names the module at ``path`` imports on a line carrying ``MARKER``."""
    text = path.read_text()
    lines = text.splitlines()
    return {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if MARKER in lines[alias.lineno - 1]
    }


def test_tracer_markers_name_exactly_the_unused_imports():
    for path in sorted(Path(mechverify.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            assert marked_imports(path) == unused_imports(path), path.name
