"""Every name a rotkrein module imports is used in that module, no private
helper outlives its callers, and every function the benchmark tracer wraps
exists.

No lint tool runs over the package, so these tests are the check.  The
package __init__ re-exports its imports and is skipped.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotkrein"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    src = "import math\nfrom os import path, sep\n\nprint(sep)\n"
    assert _unused_imports(src) == ["math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _dead_private_names(sources: dict) -> list:
    """Module-level _names of the sources ({module: text}) that no other
    top-level statement of any of them references: a helper that outlived
    its callers.  Dunder names are exempt."""
    defined, refs = [], []
    for mod, text in sources.items():
        for i, node in enumerate(ast.parse(text).body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(mod, i, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            seen = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    seen.add(n.id)
                elif isinstance(n, ast.Attribute):
                    seen.add(n.attr)
                elif isinstance(n, ast.alias):
                    seen.add(n.name)
            refs.append((mod, i, seen))
    return sorted(f"{mod}.{name}" for mod, i, name in defined
                  if not any(name in seen for m, j, seen in refs if (m, j) != (mod, i)))


def test_finds_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_A, _B = 1, 2\n\ndef _used():\n    return _LIMIT + _A\n\n"
             "def _self_only(n):\n    return _self_only(n - 1)\n\nclass _Gone:\n    pass\n",
        "b": "from a import _used\n\nprint(_used())\n",
    }
    assert _dead_private_names(sources) == ["a._B", "a._Gone", "a._self_only"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _dead_private_names(sources) == []


def test_benchmark_tracer_names_exist():
    """perfbench/tracing.py wraps rotkrein functions by name; a refactor that
    deletes one would leave its layer silently untraced.  The file is only
    read: its LAYERS literal is parsed, nothing of it is run."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    missing = [f"{mod}.{name}" for mod, names in layers.values() for name in names
               if not callable(getattr(importlib.import_module(f"rotkrein.{mod}"), name, None))]
    assert len(layers) > 10
    assert missing == []
