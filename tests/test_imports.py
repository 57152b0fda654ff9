"""Every name a module under src/ or tests/ imports is read somewhere in it,
every import sits at module level, every name the benchmark's tracer wraps
still exists, and the modules the benchmark imports load no others."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
# bipartite imports belt_modp, which imports bipartite, inside the two
# functions that use it: a module-level import would be a cycle
CYCLE_BREAKERS = {
    ("src/clusteralg/bipartite.py", "belt_modp", "belt_table"),
    ("src/clusteralg/bipartite.py", "belt_modp", "belt_distinct"),
}


def unused_imports(source):
    """The names bound by the imports of a module and never read in it,
    each with the line of its import; `from __future__` imports are
    exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source):
    """(line, module, name) for each name imported inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                found += [(node.lineno, a.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                found += [(node.lineno, node.module, a.name) for a in node.names]
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_level_imports(path):
    rel = path.relative_to(ROOT).as_posix()
    found = function_imports(path.read_text())
    assert [f for f in found if (rel,) + f[1:] not in CYCLE_BREAKERS] == []


def test_the_scan_finds_a_function_level_import():
    source = (
        "import os\ndef f():\n    def g():\n        from .a import b\n    import json\n"
    )
    assert function_imports(source) == [(4, "a", "b"), (5, "json", "json")]


def test_the_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport json as j\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "j")]


def test_every_tracing_target_resolves():
    # bench/ is not a package: load bench/tracing.py from its file
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # a module attribute, or an entry of the class __dict__ the tracer wraps
    missing = [
        name
        for name, module, cls, attr, *_ in tracing.TARGETS
        if not (
            hasattr(module, attr)
            if cls is None
            else attr in vars(getattr(module, cls, object))
        )
    ]
    assert missing == []


def test_the_benchmarked_modules_load_no_other_module():
    # each benchmark child imports these three and compiles what they
    # import, so a new module here is set-up time in every child
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import clusteralg.bipartite, clusteralg.exchange_graph, clusteralg.principal\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'clusteralg')))"
    ) % str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [
        "clusteralg",
        "clusteralg.bipartite",
        "clusteralg.exchange_graph",
        "clusteralg.laurent",
        "clusteralg.mutation",
        "clusteralg.principal",
        "clusteralg.semifield",
    ]
