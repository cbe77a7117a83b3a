"""Public surface: the package re-exports exactly what its modules declare,
and importing the CLI pulls in no module it does not need."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is the largest import a CLI process could pay for, and
    # only a fit of a non-uniform record needs it
    src = Path(gravfringe.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import gravfringe.cli, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
