"""The package's public surface is what the system uses.

Each module's ``__all__`` names what the module defines, and every public
top-level function or class of ``heatchern`` is referenced outside its own
definition and outside ``tests/``: by another part of the package, by
``tools/`` or by ``perfbench/``.  The package's ``__init__`` re-exports do not
count as a use.  A public name that only its own tests call fails here; it
stays only on ``KEPT_FOR_OPEN_WORK`` with the reason it waits.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import heatchern

PACKAGE = Path(heatchern.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# Public names no caller uses yet, each kept for the work that will use it.
KEPT_FOR_OPEN_WORK = {
    "bound_expectation": "the estimate at scale (ROADMAP items 8 and 9)",
    "interpolation_norm": "the estimate at scale (ROADMAP items 8 and 9)",
    "repeated_expectation_series": "the only caller of exp_traces' shifts, which the "
    "quadrature from the spectrum (ROADMAP item 3) takes over",
}

MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


def public_definitions() -> dict[str, str]:
    """Each public top-level function or class of the package, with its module."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                out[node.name] = path.stem
    return out


def referenced_names() -> set[str]:
    """Names the package (less its ``__init__``), ``tools/`` and ``perfbench/``
    use: loaded names, attributes and the names they import."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "tools").glob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves(module):
    mod = importlib.import_module(f"heatchern.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_every_public_definition_has_a_caller():
    used = referenced_names()
    unused = {name for name in public_definitions() if name not in used}
    assert sorted(unused - KEPT_FOR_OPEN_WORK.keys()) == []
    # an entry whose work has landed, or whose name is gone, leaves the list
    assert sorted(KEPT_FOR_OPEN_WORK.keys() - unused) == []
