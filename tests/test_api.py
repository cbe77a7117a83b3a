"""Public surface: the package re-exports exactly what its modules declare,
the README's examples run, importing the CLI pulls in no module it does
not need, no file the CLI reads or writes depends on the locale's
encoding, and the benchmark launcher still finds every layer it traces."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import gravfringe
from gravfringe.fringe import synthesize_record, write_record
from gravfringe.twostate import TilloyDiosi

ROOT = Path(__file__).resolve().parents[1]


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


def test_readme_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def _run_python(*args: str, cwd: Path | None = None) -> str:
    src = Path(gravfringe.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is the largest import a CLI process could pay for, and
    # only a fit of a non-uniform record needs it; scipy.interpolate and
    # scipy.integrate serve library-only cross-checks
    lazy = ("scipy.signal", "scipy.interpolate", "scipy.integrate")
    code = (
        "import gravfringe.cli, sys; "
        f"print(sorted(m for m in sys.modules if m.startswith({lazy!r})))"
    )
    assert _run_python("-c", code).strip() == "[]"


def test_twostate_import_leaves_scipy_unloaded():
    # the package's __init__ re-exports fringe, which loads scipy.optimize,
    # so the module is imported under a bare package of the same path
    package = Path(gravfringe.__file__).resolve().parent
    code = (
        "import sys, types; "
        "package = types.ModuleType('gravfringe'); "
        f"package.__path__ = [{str(package)!r}]; "
        "sys.modules['gravfringe'] = package; "
        "import gravfringe.twostate; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert _run_python("-c", code).strip() == "[]"


def test_cli_files_name_their_encoding(tmp_path):
    # -X warn_default_encoding warns on every open() that leaves the
    # encoding to the locale, and -W error makes that warning fatal
    configs = ROOT / "configs"
    code = f"""
from gravfringe.cli import main
assert main(["frequencies", "--config", {str(configs / "cesium_tungsten.cfg")!r}]) == 0
assert main(["simulate", "--model", "schrodinger", "--duration", "60",
             "--samples", "50", "--out", "sim"]) == 0
assert main(["fit", "sim/record.csv", "--out", "fit"]) == 0
assert main(["validate-oracle", "--config",
             {str(configs / "oracle_quadratic.cfg")!r}]) == 0
"""
    _run_python(
        "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code,
        cwd=tmp_path,
    )


def test_bench_launcher_records_every_traced_layer(tmp_path):
    # bench/launch.py wraps package functions by name; a rename would
    # silently zero its per-layer metric instead of failing anything
    def traced(name: str, *argv: str) -> set[str]:
        spans = tmp_path / f"{name}.json"
        _run_python(
            str(ROOT / "bench" / "launch.py"), str(spans), "0",
            name, *argv, "--out", str(tmp_path / name),
        )
        return {span[1] for span in json.loads(spans.read_text())["spans"]}

    record = tmp_path / "record.csv"
    write_record(
        synthesize_record(TilloyDiosi(0.05, 0.22), np.linspace(0.0, 120.0, 300)),
        record,
    )
    names = (
        traced("frequencies")
        | traced("validate-oracle", "--config",
                 str(ROOT / "configs" / "oracle_quadratic.cfg"))
        | traced("fit", str(record))
    )
    expected = {
        "config.load",
        "gravity.frequency_report",
        "oracle.run_validation",
        "phasespace.initial_state",
        "phasespace.field_build",
        "fringe.read_record",
        "fringe.fit",
        "fringe.least_squares",
    }
    assert not expected - names, sorted(expected - names)
