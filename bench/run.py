"""End-to-end benchmark of the ``gravfringe`` command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a fresh ``python -m gravfringe.cli ...`` process,
imports included, run against the checkout's ``src/`` by one
closed-loop client, one operation at a time.  Each workload is a fixed
cycle of operations drawn from ``--seed``; the run repeats the cycle
(at least twice) and starts no operation after ``--seconds`` have
passed.  Every operation is checked: exit code, warnings on stderr,
the subcommand's own output check, and byte-identical data files
against the first run of the same operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with cycles run under ``bench/launch.py``, which records
spans around the package's layers, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable account including the machine block.  Without
a working ``src/gravfringe`` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import spans as sp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: the run, set-up included, must end well inside the 180 s the caller allows
HARD_LIMIT_S = 170.0
#: fresh import-only processes timed for ``setup_s``, after one untimed warm-up
SETUP_REPEATS = 3
#: share of a traced process's wall time that the ``cli.import`` and
#: ``cli.main`` spans may leave unaccounted: interpreter start-up (about
#: 0.05 s) and teardown with numpy and scipy loaded (about 0.15 s) are
#: about 13 % of a 1.6 s operation on a 2-core Xeon
UNACCOUNTED_LIMIT = 0.25
#: fit estimates must land within this many standard errors of the truth
FIT_SIGMAS = 5.0
#: single-threaded numerics: one client, one core per operation, no
#: oversubscription of the two cores by BLAS or OpenMP pools
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_WARNING = re.compile(r"warning", re.IGNORECASE)


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


class SetupFailed(Exception):
    """The checkout cannot run the program; the run reports no result."""


# ------------------------------------------------------------------ inputs


@dataclass
class Op:
    """One CLI invocation of a workload's cycle."""

    slot: str  # subcommand name; unique within a cycle
    args: list[str]
    out: Path
    check: Callable[[Path], dict[str, float]]


@dataclass
class Workload:
    cycle: list[Op]
    inputs: dict[str, object]
    working_set_bytes: int


def _flat_doc(**values: object) -> str:
    """A flat ``key = value`` document with round-trip float values."""
    return "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                   for key, value in values.items())


def oracle_nulled(rng: random.Random, work: Path) -> Workload:
    """Repeated 512^2 validation of a seeded nulled two-ball geometry.

    d2 = d1 sqrt(g2/g1) cancels the midpoint force, so omega_C = 0; the
    ratio range keeps the near ball outside the grid and the step count
    at the stock value.  hold_time 0.5 with 5 snapshots keeps one
    operation near 13 s; the stock hold_time 4 run (about 80 s) is out of
    scope.
    """
    ratio = rng.uniform(1.8, 2.2)
    g1, d1 = 705.0, 20.0
    config = work / "oracle_nulled.cfg"
    config.write_text(_flat_doc(
        potential="two_ball", arm_separation=8.0, packet_width=0.25,
        coupling_left=g1, coupling_right=g1 * ratio,
        dist_left=d1, dist_right=d1 * math.sqrt(ratio),
        n_q=512, n_p=512, n_max=3, n_snapshots=5, hold_time=0.5,
        q_lo=-8.5, q_hi=8.5, p_lo=-40.0, p_hi=40.0,
    ))
    out = work / "oracle"
    op = Op("validate-oracle", ["validate-oracle", "--config", _rel(config),
                                "--out", _rel(out)], out, check_oracle)
    return Workload([op], {"g2_over_g1": ratio}, 512 * 512 * 8)


def fringe_records(rng: random.Random, work: Path, samples: int = 20000) -> Workload:
    """General-model record synthesis and its fit, on one seeded record.

    lambda in [0.02, 0.08] and omega in [0.15, 0.30] give 3 to 6 periods
    over 120 s; |Re a_lr|, |Im a_lr| <= 0.01 keep every sample inside
    the physical set (|a_lr| near 0.1 raises one PositivityWarning per
    sample and measures warning formatting instead of synthesis).
    """
    lam = rng.uniform(0.02, 0.08)
    omega = rng.uniform(0.15, 0.30)
    a_lr = complex(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
    noise_seed = rng.randrange(1, 2**31)
    sim, fit = work / "sim", work / "fit"
    cycle = [
        Op("simulate", [
            "simulate", "--model", "general", f"--a-lr={a_lr!r}",
            f"--b-lr={complex(-lam, omega)!r}", "--duration", "120",
            "--samples", str(samples), "--noise-sd", "0.02",
            "--seed", str(noise_seed), "--out", _rel(sim),
        ], sim, lambda out: check_record(out, samples)),
        Op("fit", ["fit", _rel(sim / "record.csv"), "--out", _rel(fit)], fit,
           lambda out: check_fit(out, lam, omega)),
    ]
    inputs = {"lambda": lam, "omega": omega, "a_lr": repr(a_lr),
              "noise_seed": noise_seed}
    return Workload(cycle, inputs, samples * 8)


def cli_quick(rng: random.Random, work: Path) -> Workload:
    """Every subcommand once per cycle on small inputs.

    Each operation does at most about 0.1 s of work against about 1.3 s
    of imports, so start-up dominates.  The geometry is a seeded nulled
    caesium/tungsten variant: M2/M1 in [1.8, 2.2], d2 = d1 sqrt(M2/M1),
    and d1 in [57.5, 62] mm keeps both balls clear of the arms.
    """
    mass_left = rng.uniform(0.015, 0.025)
    ratio = rng.uniform(1.8, 2.2)
    dist_left = rng.uniform(0.0575, 0.062)
    geometry = {
        "particle_mass_amu": 133.0,
        "arm_separation_m": 0.1,
        "mass_left_kg": mass_left,
        "mass_right_kg": mass_left * ratio,
        "dist_left_m": dist_left,
        "dist_right_m": dist_left * math.sqrt(ratio),
    }
    config = work / "experiment.cfg"
    config.write_text(_flat_doc(**geometry))
    omega_q = _library_omega_quantum(config)

    parameter, base = rng.choice([
        ("d1", dist_left), ("d2", geometry["dist_right_m"]),
        ("m1", mass_left), ("m2", geometry["mass_right_kg"]), ("dx", 0.1),
    ])
    lo, hi = base * rng.uniform(0.7, 0.9), base * rng.uniform(1.1, 1.3)
    duration = rng.uniform(4.0, 8.0) * 2.0 * math.pi / omega_q
    noise_seed = rng.randrange(1, 2**31)

    cfg = ["--config", _rel(config)]
    freq, sweep, sim, fit, oracle = (work / n for n in
                                     ("freq", "sweep", "sim", "fit", "oracle"))
    cycle = [
        Op("frequencies", ["frequencies", *cfg, "--out", _rel(freq)], freq,
           lambda out: check_frequencies(out, omega_q)),
        Op("sweep", ["sweep", *cfg, "--parameter", parameter, "--min", repr(lo),
                     "--max", repr(hi), "--steps", "200", "--out", _rel(sweep)],
           sweep, lambda out: check_sweep(out, 200)),
        Op("simulate", ["simulate", *cfg, "--model", "schrodinger",
                        "--duration", repr(duration), "--samples", "200",
                        "--noise-sd", "0.01", "--seed", str(noise_seed),
                        "--out", _rel(sim)], sim, lambda out: check_record(out, 200)),
        Op("fit", ["fit", _rel(sim / "record.csv"), "--out", _rel(fit)], fit,
           lambda out: check_fit(out, 0.0, omega_q)),
        Op("validate-oracle", ["validate-oracle", "--config",
                               "configs/oracle_quadratic.cfg", "--out", _rel(oracle)],
           oracle, check_oracle),
    ]
    inputs = {**geometry, "omega_quantum": omega_q, "sweep": [parameter, lo, hi],
              "duration_s": duration, "noise_seed": noise_seed}
    return Workload(cycle, inputs, 128 * 128 * 8)


def probe_cycle(seed: int, work: Path) -> list[Op]:
    """Small operations that together enter every traced layer.

    A traced run ends with one traced pass over them, so that a layer the
    workload never enters reports a time measured here instead of a
    constant 0: the ``cli-quick`` cycle plus a 500-sample general-model
    record.
    """
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    general = fringe_records(rng, work / "general", samples=500).cycle[0]
    general.slot = "simulate-general"
    ops = cli_quick(rng, work).cycle + [general]
    for op in ops:
        op.slot = "probe " + op.slot
    return ops


WORKLOADS = {
    "oracle-nulled": oracle_nulled,
    "fringe-records": fringe_records,
    "cli-quick": cli_quick,
}


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _library_omega_quantum(config: Path) -> float:
    """omega_Q of a config file, computed by the package in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gravfringe.config import load_config
    from gravfringe.gravity import omega_quantum

    return float(omega_quantum(load_config(config)))


# ------------------------------------------------------------------ checks


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_frequencies(out: Path, omega_q: float) -> dict[str, float]:
    report = read_kv(out / "frequencies.txt")
    measured_q = float(report["omega_quantum_rad_s"])
    measured_c = float(report["omega_classical_rad_s"])
    if measured_q != omega_q:
        raise CheckFailed(f"omega_quantum {measured_q!r} != library {omega_q!r}")
    if not abs(measured_c) < 1e-12 * abs(measured_q):
        raise CheckFailed(f"omega_classical {measured_c!r} not nulled")
    return {}


def check_sweep(out: Path, steps: int) -> dict[str, float]:
    rows = [line for line in (out / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#")][1:]
    if len(rows) != steps:
        raise CheckFailed(f"sweep.csv has {len(rows)} rows, expected {steps}")
    if not all(row.rsplit(",", 1)[-1] in ("ok", "infeasible") for row in rows):
        raise CheckFailed("sweep.csv has a row without a status")
    return {}


def check_record(out: Path, samples: int) -> dict[str, float]:
    lines = (out / "record.csv").read_text().splitlines()
    if len(lines) != samples + 2:
        raise CheckFailed(f"record.csv has {len(lines) - 2} samples, expected {samples}")
    return {}


def check_fit(out: Path, lam: float, omega: float) -> dict[str, float]:
    fit = read_kv(out / "fit.txt")
    for name, truth in (("lambda", lam), ("omega", omega)):
        estimate = float(fit[f"{name}_hat"])
        se = math.sqrt(float(fit[f"cov_{name}_{name}"]))
        if not abs(estimate - truth) <= FIT_SIGMAS * se:
            raise CheckFailed(
                f"{name}_hat {estimate!r} is {abs(estimate - truth) / se:.2f} "
                f"standard errors from {truth!r}"
            )
    return {"fit_omega_rel_err": abs(float(fit["omega_hat"]) - omega) / omega}


def check_oracle(out: Path) -> dict[str, float]:
    report = read_kv(out / "oracle_report.txt")
    if report.get("passed") != "true":
        raise CheckFailed("oracle_report.txt does not say passed = true")
    return {"moyal_rel_err": float(report["moyal_abs_error"])
            / float(report["reference_scale"])}


def data_digests(out: Path) -> dict[str, str]:
    """sha256 of every file the operation wrote except its manifest."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


# --------------------------------------------------------------- execution


@dataclass
class Result:
    slot: str
    traced: bool
    wall_s: float
    cpu_s: float = 0.0
    start: float = 0.0
    error: str | None = None
    values: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def run_process(argv: list[str], timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=program_env(), capture_output=True,
                          text=True, timeout=timeout)
    return proc, time.perf_counter() - start


def set_up(deadline: float, repeats: int) -> list[float]:
    """Fresh import-only processes: one warm-up, then ``repeats`` timed.

    The warm-up also proves that the checkout's own package is the one
    imported; anything else ends the run without a result.
    """
    probe = "import gravfringe.cli, gravfringe; print(gravfringe.__file__)"
    times = []
    for i in range(repeats + 1):
        proc, wall = run_process([sys.executable, "-c", probe],
                                 timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise SetupFailed(f"cannot import gravfringe.cli\n{proc.stderr}")
        if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
            raise SetupFailed(f"imported {proc.stdout.strip()}, not the checkout's")
        if i:
            times.append(wall)
    return times


def run_op(op: Op, op_id: int, traced: bool, baseline: dict[str, dict],
           deadline: float) -> Result:
    shutil.rmtree(op.out, ignore_errors=True)
    spans_path = WORK / "spans" / f"{op_id}.json"
    if traced:
        argv = [sys.executable, str(BENCH / "launch.py"), str(spans_path),
                str(op_id), *op.args]
    else:
        argv = [sys.executable, "-m", "gravfringe.cli", *op.args]
    result = Result(op.slot, traced, 0.0)
    cpu_before = _children_cpu_s()
    result.start = start = time.perf_counter()
    try:
        proc, result.wall_s = run_process(argv, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        result.wall_s = time.perf_counter() - start
        result.error = "timed out"
        return result
    result.cpu_s = _children_cpu_s() - cpu_before
    try:
        if proc.returncode != 0:
            raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        warnings = [line for line in proc.stderr.splitlines() if _WARNING.search(line)]
        if warnings:
            raise CheckFailed(f"warning on stderr: {warnings[0]}")
        result.values = op.check(op.out)
        digests = data_digests(op.out)
        if baseline.setdefault(op.slot, digests) != digests:
            raise CheckFailed("data files differ from the first run of this operation")
        if traced:
            result.spans = read_spans(spans_path)
            check_trace(result)
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _children_cpu_s() -> float:
    """User plus system CPU seconds of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def read_spans(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    keys = ("id", "name", "start", "end", "parent", "value")
    return [dict(zip(keys, row), op=data["op"]) for row in data["spans"]]


def check_trace(result: Result) -> None:
    errors = sp.nesting_errors(result.spans)
    if errors:
        raise CheckFailed("; ".join(errors[:3]))
    roots = {s["name"]: s for s in result.spans if s["parent"] is None}
    if set(roots) != {"cli.import", "cli.main"}:
        raise CheckFailed(f"root spans {sorted(roots)}, expected cli.import and cli.main")
    imported, main = roots["cli.import"], roots["cli.main"]
    accounted = (imported["end"] - imported["start"]) + (main["end"] - main["start"])
    result.values["startup_s"] = imported["start"] - result.start
    result.values["teardown_s"] = result.start + result.wall_s - main["end"]
    result.values["unaccounted_ratio"] = 1.0 - accounted / result.wall_s
    if result.values["unaccounted_ratio"] > UNACCOUNTED_LIMIT:
        raise CheckFailed(
            f"cli.import + cli.main cover {accounted:.3f} s of {result.wall_s:.3f} s"
        )


def run_loop(workload: Workload, seconds: float, trace: bool,
             deadline: float) -> tuple[list[Result], float]:
    """Repeat the cycle for ``seconds``, and at least twice.

    After the first two cycles an operation starts only if its median
    time so far still fits in ``seconds``, so a run of 13 s operations
    does not overrun by most of one.  Under ``trace`` even cycles run
    untraced and odd cycles traced, so both see the same inputs and the
    same data files.
    """
    results: list[Result] = []
    baseline: dict[str, dict] = {}
    start = time.perf_counter()
    cycle_index = 0
    while True:
        for op in workload.cycle:
            now = time.perf_counter()
            if now >= deadline or (cycle_index >= 2 and now - start + sp.median(
                    [r.wall_s for r in results if r.slot == op.slot]) > seconds):
                return results, now - start
            result = run_op(op, len(results), trace and cycle_index % 2 == 1,
                             baseline, deadline)
            results.append(result)
            if result.error == "timed out":
                return results, time.perf_counter() - start
        cycle_index += 1


# ----------------------------------------------------------------- metrics

#: per-layer metric -> (span name, field of ``spans.layer_totals``)
LAYER_METRICS = {
    "cli.import_s": ("cli.import", "total"),
    "cli.main_self_s": ("cli.main", "self"),
    "config.load_s": ("config.load", "total"),
    "config.update_s": ("config.update", "total"),
    "gravity.frequency_report_s": ("gravity.frequency_report", "total"),
    "gravity.omega_calls": ("gravity.omega", "count"),
    "gravity.omega_s": ("gravity.omega", "total"),
    "twostate.spectral_solution_calls": ("twostate.spectral_solution", "count"),
    "twostate.spectral_solution_s": ("twostate.spectral_solution", "total"),
    "twostate.analytic_coherence_s": ("twostate.analytic_coherence", "total"),
    "fringe.synthesize_self_s": ("fringe.synthesize", "self"),
    "fringe.write_record_s": ("fringe.write_record", "total"),
    "fringe.read_record_s": ("fringe.read_record", "total"),
    "fringe.fit_s": ("fringe.fit", "total"),
    "fringe.fit_nfev": ("fringe.least_squares", "value"),
    "phasespace.initial_state_s": ("phasespace.initial_state", "total"),
    "phasespace.field_build_s": ("phasespace.field_build", "total"),
    "phasespace.stability_bound_s": ("phasespace.stability_bound", "total"),
    "phasespace.evolve_s": ("phasespace.evolve", "total"),
    "phasespace.evolve_calls": ("phasespace.evolve", "count"),
    "phasespace.fft_s": ("phasespace.fft", "total"),
    "phasespace.fft_calls": ("phasespace.fft", "count"),
    "phasespace.fft_bytes": ("phasespace.fft", "value"),
    "phasespace.readout_s": ("phasespace.readout", "total"),
    "phasespace.readout_calls": ("phasespace.readout", "count"),
    "phasespace.truncation_tail_s": ("phasespace.truncation_tail", "total"),
    "oracle.run_validation_s": ("oracle.run_validation", "total"),
    "oracle.self_s": ("oracle.run_validation", "self"),
}

#: subcommand -> name of its median wall-time metric
P50_NAMES = {
    "frequencies": "frequencies_p50_s",
    "sweep": "sweep_p50_s",
    "simulate": "simulate_p50_s",
    "fit": "fit_p50_s",
    "validate-oracle": "oracle_p50_s",
}

UNITS = {"calls": "count", "nfev": "count", "bytes": "bytes", "s": "s",
         "ratio": "ratio", "err": "ratio", "mb": "MB"}


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    return UNITS[name.rsplit("_", 1)[-1]]


def slot_medians(results: list[Result], traced: bool,
                 key: str = "wall_s") -> dict[str, float]:
    """Median wall (or CPU) time per operation, failed runs included."""
    by_slot: dict[str, list[float]] = {}
    for r in results:
        if r.traced == traced:
            by_slot.setdefault(r.slot, []).append(getattr(r, key))
    return {slot: sp.median(walls) for slot, walls in by_slot.items()}


def cycle_time(workload: Workload, medians: dict[str, float]) -> float:
    """One pass over the cycle: the sum of each operation's median.

    An operation that never ran (the run timed out first) adds nothing;
    the timed-out operation already makes the run incorrect.
    """
    return sum(medians.get(op.slot, 0.0) for op in workload.cycle)


def value_median(results: list[Result], key: str) -> float:
    values = [r.values[key] for r in results if key in r.values]
    return sp.median(values) if values else 0.0


def end_to_end(workload: Workload, results: list[Result], loop_s: float,
               setup: list[float]) -> dict[str, float]:
    medians = slot_medians(results, traced=False)
    completed = sum(r.error is None for r in results)
    return {
        "setup_s": sp.median(setup),
        "cycle_s": cycle_time(workload, medians),
        "cycle_cpu_s": cycle_time(workload, slot_medians(results, False, "cpu_s")),
        "ops_per_s": completed / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def per_layer(workload: Workload, results: list[Result], probe: list[Result],
              scipy_import_s: float) -> dict[str, float]:
    """Layer metrics from the workload's traced operations that enter the
    layer, or from the probe operations when none of them does."""
    traced = [r for r in results if r.traced and r.error is None]
    sources = [[sp.layer_totals(r.spans) for r in group if r.error is None]
               for group in (traced, probe)]
    metrics = {}
    for metric, (name, key) in LAYER_METRICS.items():
        for totals in sources:
            entered = [t[name][key] for t in totals if name in t]
            if entered:
                metrics[metric] = sp.median(entered)
                break
        else:
            metrics[metric] = 0.0
    metrics["cli.import_scipy_s"] = scipy_import_s
    untraced = slot_medians(results, traced=False)
    untraced_cycle = cycle_time(workload, untraced)
    metrics["trace.overhead_ratio"] = (
        cycle_time(workload, slot_medians(results, traced=True)) / untraced_cycle - 1.0
        if untraced_cycle else 0.0
    )
    metrics["cli.startup_s"] = value_median(traced, "startup_s")
    metrics["cli.teardown_s"] = value_median(traced, "teardown_s")
    metrics["trace.unaccounted_ratio"] = value_median(traced, "unaccounted_ratio")
    for metric in ("oracle.moyal_rel_err", "fringe.fit_omega_rel_err"):
        key = metric.split(".")[1]
        metrics[metric] = value_median(results, key) or value_median(probe, key)
    return metrics


def scipy_import_time(deadline: float) -> float:
    """Seconds of ``import gravfringe.cli`` spent importing scipy.

    From ``python -X importtime``: the cumulative time of every scipy
    module whose importer is not itself a scipy module.
    """
    proc, _ = run_process([sys.executable, "-X", "importtime", "-c",
                           "import gravfringe.cli"],
                          timeout=max(1.0, deadline - time.perf_counter()))
    return importtime_share(proc.stderr, "scipy") / 1e6


def importtime_share(report: str, package: str) -> float:
    """Microseconds spent importing ``package`` in an importtime report."""
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = 0
    importer: list[tuple[int, str]] = []  # enclosing imports, outermost first
    for depth, cumulative, name in reversed(entries):  # children follow parents
        while importer and importer[-1][0] >= depth:
            importer.pop()
        outer = importer[-1][1] if importer else ""
        if _in_package(name, package) and not _in_package(outer, package):
            total += cumulative
        importer.append((depth, name))
    return total


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def machine_block(workload: Workload) -> dict[str, object]:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": THREAD_ENV,
        "working_set_bytes_per_array": workload.working_set_bytes,
    }


# -------------------------------------------------------------------- main


def report(workload_name: str, args: argparse.Namespace, workload: Workload,
           results: list[Result], metrics: dict[str, float]) -> None:
    print(f"workload = {workload_name}  seed = {args.seed}  "
          f"seconds = {args.seconds}  trace = {args.trace}")
    print("machine = " + json.dumps(machine_block(workload)))
    print("inputs = " + json.dumps(workload.inputs))
    for slot in dict.fromkeys(r.slot for r in results):
        for traced in (False, True):
            walls = [r.wall_s for r in results
                     if r.slot == slot and r.traced == traced and r.error is None]
            if walls:
                print(f"op {slot}{' traced' if traced else ''}: n = {len(walls)}  "
                      f"p50 = {sp.median(walls):.4f} s  min = {min(walls):.4f} s  "
                      f"max = {max(walls):.4f} s")
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"FAILED {r.slot}{' traced' if r.traced else ''}: {r.error}")
    print(f"fail_ratio = {len(failed)}/{len(results)} = {len(failed) / len(results):.4g}")
    if not args.trace:
        medians = slot_medians(results, traced=False)
        for slot, name in P50_NAMES.items():
            if slot in medians:
                print(f"{name} = {medians[slot]:.6g} s")
        for key in ("moyal_rel_err", "fit_omega_rel_err"):
            if any(key in r.values for r in results):
                print(f"{key} = {value_median(results, key):.6g} ratio")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + HARD_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "spans").mkdir(parents=True)
    try:
        setup = set_up(deadline, 0 if args.trace else SETUP_REPEATS)
        workload = WORKLOADS[args.workload](random.Random(args.seed), WORK)
        scipy_s = scipy_import_time(deadline) if args.trace else 0.0
        results, loop_s = run_loop(workload, args.seconds, bool(args.trace), deadline)
        if args.trace:
            probe = [run_op(op, len(results) + i, True, {}, deadline)
                     for i, op in enumerate(probe_cycle(args.seed, WORK / "probe"))]
            metrics = per_layer(workload, results, probe, scipy_s)
            results += probe
        else:
            metrics = end_to_end(workload, results, loop_s, setup)
        report(args.workload, args, workload, results, metrics)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    failed = sum(r.error is not None for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
