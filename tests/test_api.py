"""Public surface: the package re-exports exactly what its modules declare."""

import ast
import importlib
from pathlib import Path

import gravfringe


def _reexports() -> dict[str, set[str]]:
    """Names ``gravfringe/__init__.py`` imports, keyed by home module."""
    tree = ast.parse(Path(gravfringe.__file__).read_text())
    out: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def test_package_reexports_match_module_all():
    reexports = _reexports()
    assert {"config", "errors", "gravity", "oracle", "phasespace"} <= set(reexports)
    for module_name, names in reexports.items():
        module = importlib.import_module(f"gravfringe.{module_name}")
        declared = set(module.__all__)
        assert not names - declared, (
            f"gravfringe re-exports {sorted(names - declared)} that "
            f"gravfringe.{module_name}.__all__ does not declare"
        )
        assert not declared - names, (
            f"gravfringe.{module_name}.__all__ declares {sorted(declared - names)} "
            "that the package does not re-export"
        )
        assert all(hasattr(module, name) for name in declared)
