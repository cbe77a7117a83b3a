"""Tests of the benchmark's percentile, self-time and span-nesting arithmetic."""

from __future__ import annotations

import statistics

import pytest

import spans as sp
from run import importtime_share


def span(id, name, start, end, parent=None, op=0, value=None):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "value": value}


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert sp.quartiles(values) == (q1, q3)
    assert sp.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_single_value_is_its_own_quartiles():
    assert sp.quartiles([2.5]) == (2.5, 2.5)
    assert sp.spread([2.5]) == 0.0


def test_median_of_even_count_averages_the_middle_pair():
    assert sp.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert sp.covered((0.0, 10.0), []) == 0.0
    assert sp.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert sp.covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert sp.covered((0.0, 10.0), [(1.0, 9.0), (2.0, 3.0)]) == pytest.approx(8.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "child", 1.0, 4.0, parent=0),
        span(2, "child", 5.0, 6.0, parent=0),
        span(3, "grandchild", 1.5, 3.5, parent=1),
    ]
    own = sp.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_totals_sum_per_name():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "fft", 1.0, 2.0, parent=0, value=64),
        span(2, "fft", 3.0, 5.0, parent=0, value=32),
    ]
    totals = sp.layer_totals(spans)
    assert totals["fft"] == {"total": pytest.approx(3.0), "self": pytest.approx(3.0),
                             "count": 2, "value": 96}
    assert totals["root"]["self"] == pytest.approx(7.0)
    assert totals["root"]["value"] == 0


def test_well_formed_tree_has_no_nesting_errors():
    spans = [span(0, "root", 0.0, 10.0), span(1, "child", 1.0, 10.0, parent=0)]
    assert sp.nesting_errors(spans) == []


@pytest.mark.parametrize(
    "bad, message",
    [
        (span(1, "child", 9.0, 11.0, parent=0), "leaves its parent"),
        (span(1, "child", 2.0, 1.0, parent=0), "ends before it starts"),
        (span(1, "child", 1.0, 2.0, parent=7), "has no parent"),
        (span(1, "child", 1.0, 2.0, parent=0, op=1), "crosses operations"),
        (span(0, "twin", 1.0, 2.0), "duplicate span ids"),
    ],
)
def test_nesting_errors_name_the_problem(bad, message):
    errors = sp.nesting_errors([span(0, "root", 0.0, 10.0), bad])
    assert any(message in e for e in errors)


def test_importtime_share_counts_only_outermost_package_imports():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:       100 |        110 |     scipy",
        "import time:        50 |         50 |       scipy.linalg._misc",
        "import time:       200 |        250 |     scipy.linalg",
        "import time:         5 |          5 |     numpyish",
        "import time:        40 |        405 |   gravfringe.twostate",
        "import time:        20 |         20 |   scipy.signal",
        "import time:         1 |        426 | gravfringe",
    ])
    assert importtime_share(report, "scipy") == 110 + 250 + 20
    assert importtime_share(report, "gravfringe") == 426
