"""Every lapshift name the benchmark imports or traces must exist.

bench/workloads.py wraps module attributes by name (its *_BOUNDARIES
tables and the tracer.wrap calls); a deleted or renamed one would crash
only the traced bench pass.  The file is parsed, not imported, so this
test needs none of the bench's own modules.
"""

import ast
import importlib
from pathlib import Path

import lapshift

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
TABLES = ("VERIFY_BOUNDARIES", "POSET_BOUNDARIES")


def _tree():
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"), filename=str(WORKLOADS))


def _resolve(name: str):
    """lapshift.<name>, as an attribute of the package or as a submodule."""
    if hasattr(lapshift, name):
        return getattr(lapshift, name)
    return importlib.import_module(f"lapshift.{name}")


def _wrapped(tree):
    """(module name, attribute) of each entry of the boundary tables and of
    the lists handed to tracer.wrap."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in TABLES for t in node.targets
        ):
            roots.append(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
        ):
            roots.extend(arg for arg in node.args if not isinstance(arg, ast.Name))
    pairs = []
    for root in roots:
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Tuple)
                and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Name)
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, str)
            ):
                pairs.append((node.elts[0].id, node.elts[1].value))
    return pairs


def test_imported_names_resolve():
    names = [
        alias.name
        for node in ast.walk(_tree())
        if isinstance(node, ast.ImportFrom) and node.module == "lapshift"
        for alias in node.names
    ]
    assert len(names) > 10
    missing = []
    for name in names:
        try:
            _resolve(name)
        except ImportError:
            missing.append(name)
    assert missing == []


def test_traced_names_resolve():
    pairs = _wrapped(_tree())
    assert len(pairs) > 20
    assert {module for module, _ in pairs} >= {"verify", "posets", "orientations"}
    missing = [
        f"{module}.{attr}" for module, attr in pairs if not hasattr(_resolve(module), attr)
    ]
    assert missing == []
