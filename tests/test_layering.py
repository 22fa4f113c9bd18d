"""Imports inside the package run one way only.

Every module of ``src/sspsim`` sits on a layer, and may import only from
strictly lower layers: {model, lp, coalition} -> {scenario, matching} ->
protocol -> cli, with the package entry points on top. Imports inside
functions count too, so a lazy import cannot hide an upward edge. Outside
the package, a module may import only numpy and the standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sspsim"

LAYERS = {
    "model": 0,
    "lp": 0,
    "coalition": 0,
    "scenario": 1,
    "matching": 1,
    "protocol": 2,
    "cli": 3,
    "__main__": 4,
    "__init__": 4,
}


def imported_modules(path: Path) -> set[str]:
    """Full names of the modules that ``path`` imports, at any depth; a relative import is named under ``sspsim``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.add(node.module or "")
            elif node.module:
                found.add(f"sspsim.{node.module}")
            else:  # from . import x
                found.update(f"sspsim.{alias.name}" for alias in node.names)
    return found


def package_imports(path: Path) -> set[str]:
    """Names of the ``sspsim`` modules that ``path`` imports, at any depth."""
    parts = (name.split(".") for name in imported_modules(path))
    return {p[1] for p in parts if p[0] == "sspsim" and len(p) > 1}


def foreign_imports(path: Path) -> list[str]:
    """Top-level packages ``path`` imports that are neither numpy, sspsim nor the standard library."""
    tops = {name.split(".")[0] for name in imported_modules(path)}
    return sorted(tops - {"numpy", "sspsim"} - set(sys.stdlib_module_names))


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_point_down(module):
    upward = sorted(
        imported
        for imported in package_imports(PACKAGE / f"{module}.py")
        if LAYERS.get(imported, len(LAYERS)) >= LAYERS[module]
    )
    assert upward == [], f"{module} imports {upward} from its own layer or above"


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_the_package_needs_only_numpy_and_the_standard_library(module):
    # so no test scaffolding (tests, pytest, hypothesis, scipy) can reach the runtime package
    assert foreign_imports(PACKAGE / f"{module}.py") == []


def test_lazy_imports_are_seen(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy.linalg\n"
        "def f():\n    from .protocol import run_engine\n    import sspsim.cli, json\n"
        "    from tests.oracles import highs\n    import scipy.optimize\n"
    )
    assert package_imports(source) == {"protocol", "cli"}
    assert foreign_imports(source) == ["scipy", "tests"]
