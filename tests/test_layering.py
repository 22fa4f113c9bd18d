"""Imports inside the package run one way only.

Every module of ``src/sspsim`` sits on a layer, and may import only from
strictly lower layers: {model, lp, coalition} -> {scenario, matching} ->
protocol -> cli, with the package entry points on top. Imports inside
functions count too, so a lazy import cannot hide an upward edge.
"""

from __future__ import annotations

import ast
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


def package_imports(path: Path) -> set[str]:
    """Names of the ``sspsim`` modules that ``path`` imports, at any depth."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names = [node.module or ""]
            elif node.module:
                names = [f"sspsim.{node.module}"]
            else:  # from . import x
                names = [f"sspsim.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "sspsim" and len(parts) > 1:
                found.add(parts[1])
    return found


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


def test_lazy_imports_are_seen(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("def f():\n    from .protocol import run_engine\n    import sspsim.cli\n")
    assert package_imports(source) == {"protocol", "cli"}
