"""Span and percentile arithmetic shared by the benchmark and its tests.

A span is a dict with the keys ``id``, ``name``, ``start``, ``end``,
``parent`` (the id of the enclosing span, or None), ``op`` (the id of
the operation that produced it) and ``value`` (a count attached to the
span, such as bytes moved or solver evaluations, or None).  Times are
seconds on the monotonic clock, which all processes of one machine
share, so spans can be compared with wall times measured by the parent.
"""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float]:
    """(first, third) quartile as ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles.
    """
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered((s["start"], s["end"]), children.get(s["id"], []))
        for s in spans
    }


def nesting_errors(spans: list[dict]) -> list[str]:
    """Problems with the span tree; empty when it is well formed.

    Every span ends no earlier than it starts, every parent exists and
    belongs to the same operation, and every child lies inside its
    parent's interval.
    """
    by_id = {s["id"]: s for s in spans}
    errors = []
    if len(by_id) != len(spans):
        errors.append("duplicate span ids")
    for s in spans:
        if s["end"] < s["start"]:
            errors.append(f"span {s['id']} ({s['name']}) ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"span {s['id']} ({s['name']}) has no parent {s['parent']}")
        elif parent["op"] != s["op"]:
            errors.append(f"span {s['id']} ({s['name']}) crosses operations")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            errors.append(
                f"span {s['id']} ({s['name']}) leaves its parent "
                f"{parent['id']} ({parent['name']})"
            )
    return errors


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, summed self time, count, summed value."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(
            s["name"], {"total": 0.0, "self": 0.0, "count": 0, "value": 0}
        )
        entry["total"] += s["end"] - s["start"]
        entry["self"] += own[s["id"]]
        entry["count"] += 1
        if s["value"] is not None:
            entry["value"] += s["value"]
    return out
