"""Run one ``gravfringe`` command with spans around the package's layers.

Usage::

    python bench/launch.py SPANS_JSON OP_ID ARG...

Times ``import gravfringe.cli`` as the span ``cli.import``, then
replaces the public functions listed in ``LAYERS`` under the name their
caller looks them up by (so no source file changes), calls
``gravfringe.cli.main(ARG...)`` inside the span ``cli.main`` and exits
with its status.  Spans stay in memory and are written to SPANS_JSON as
``{"op": OP_ID, "spans": [[id, name, start, end, parent, value], ...]}``
when the command returns.  A function missing from the package is
skipped, so its layer simply reports no spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

clock = time.perf_counter

# (module, attribute path, span name, value taken from (args, result))
LAYERS = [
    ("gravfringe.cli", "load_config", "config.load", None),
    ("gravfringe.cli", "load_oracle_config", "config.load", None),
    ("gravfringe.cli", "with_updates", "config.update", None),
    ("gravfringe.cli", "frequency_report", "gravity.frequency_report", None),
    ("gravfringe.cli", "omega_classical", "gravity.omega", None),
    ("gravfringe.cli", "omega_quantum", "gravity.omega", None),
    ("gravfringe.cli", "synthesize_record", "fringe.synthesize", None),
    ("gravfringe.cli", "write_record", "fringe.write_record", None),
    ("gravfringe.cli", "read_record", "fringe.read_record", None),
    ("gravfringe.cli", "fit_damped_fringe", "fringe.fit", None),
    ("gravfringe.cli", "run_validation", "oracle.run_validation", None),
    ("gravfringe.fringe", "spectral_solution", "twostate.spectral_solution", None),
    ("gravfringe.fringe", "analytic_coherence", "twostate.analytic_coherence", None),
    (
        "gravfringe.fringe",
        "least_squares",
        "fringe.least_squares",
        lambda args, result: int(result.nfev),
    ),
    ("gravfringe.oracle", "wigner_from_two_packets", "phasespace.initial_state", None),
    ("gravfringe.oracle", "HamiltonianField.from_two_ball", "phasespace.field_build", None),
    ("gravfringe.oracle", "HamiltonianField.from_quadratic", "phasespace.field_build", None),
    ("gravfringe.oracle", "stability_bound", "phasespace.stability_bound", None),
    ("gravfringe.oracle", "evolve_wigner", "phasespace.evolve", None),
    ("gravfringe.oracle", "weyl_density_matrix", "phasespace.readout", None),
    ("gravfringe.oracle", "truncation_tail_ratio", "phasespace.truncation_tail", None),
]

# numpy FFTs are recorded only inside a phasespace span; the value is the
# computed bytes moved, input plus output nbytes
FFT_FUNCTIONS = ("rfft", "irfft")


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.phasespace_depth = 0

    def run(self, name, fn, args=(), kwargs=None, value=None):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        inside = name.startswith("phasespace.")
        self.stack.append(span_id)
        self.phasespace_depth += inside
        start = clock()
        result = None
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = clock()
            self.stack.pop()
            self.phasespace_depth -= inside
            counted = value(args, result) if value and result is not None else None
            self.spans.append([span_id, name, start, end, parent, counted])

    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.run(name, original, args, kwargs, value)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def wrap_fft(self, module, attr: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.phasespace_depth:
                return original(*args, **kwargs)
            return self.run("phasespace.fft", original, args, kwargs, _fft_bytes)

        setattr(module, attr, traced)

    def install(self) -> None:
        for module_name, path, name, value in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is not None:
                self.wrap(owner, attr, name, value)
        fft = importlib.import_module("numpy.fft")
        for attr in FFT_FUNCTIONS:
            self.wrap_fft(fft, attr)


def _fft_bytes(args, result) -> int:
    import numpy as np

    return int(np.asarray(args[0]).nbytes + result.nbytes)


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    try:
        cli = tracer.run("cli.import", importlib.import_module, ("gravfringe.cli",))
        tracer.install()
        return tracer.run("cli.main", cli.main, (cli_args,))
    finally:
        with open(spans_path, "w") as handle:
            json.dump({"op": op_id, "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
