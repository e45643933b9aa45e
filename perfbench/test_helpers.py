"""Self-tests for the benchmark's own helpers (not the program under test)."""

from __future__ import annotations

import os
import sys
import types

import numpy as np
import pytest

from spans import Span, Target, Tracer, covered, self_times, uncovered_share
from stats import min_samples, percentile, samples_beyond
from workloads import make_workload


def _span(name, start, end, parent=-1, layer="x"):
    return Span(name, layer, start, end, parent, "run", 0)


# -- self-time arithmetic -------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("phase", 0.0, 10.0),  # 0
        _span("a", 1.0, 5.0, parent=0),  # 1
        _span("a.child", 2.0, 3.0, parent=1),  # 2
        _span("a.child2", 3.5, 4.0, parent=1),  # 3
        _span("b", 6.0, 9.0, parent=0),  # 4
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 0.5, 3.0])
    # Self times of a tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert uncovered_share(spans, 0) == pytest.approx(0.3)
    assert uncovered_share(spans, 2) == pytest.approx(1.0)


def test_zero_length_span_has_no_uncovered_share():
    assert uncovered_share([_span("p", 1.0, 1.0)], 0) == 0.0


class _Layer:
    def work(self, items):
        return self.inner(len(items))

    def inner(self, n):
        return n * 2

    @classmethod
    def build(cls, n):
        return n + 1


def test_tracer_records_nested_spans_and_uninstalls():
    tracer = Tracer("t")
    original = _Layer.__dict__["work"]
    tracer.install(
        [
            Target(_Layer, "work", "Layer.work", "layer", lambda a: len(a[0])),
            Target(_Layer, "inner", "Layer.inner", "layer"),
            Target(_Layer, "build", "Layer.build", "layer"),
        ]
    )
    phase = tracer.open("p", "phase")
    assert _Layer().work([1, 2, 3]) == 6
    assert _Layer.build(1) == 2
    tracer.close(phase)
    tracer.uninstall()
    assert _Layer.__dict__["work"] is original
    names = [(s.name, s.parent, s.count) for s in tracer.spans]
    assert names == [("p", -1, 0), ("Layer.work", 0, 3), ("Layer.inner", 1, 0), ("Layer.build", 0, 0)]
    assert _Layer().work([1]) == 2  # unwrapped again: no new spans
    assert len(tracer.spans) == 4


def test_tracer_wraps_functions_under_every_importing_module():
    home = types.ModuleType("repro._selftest_home")
    user = types.ModuleType("repro._selftest_user")

    def entry(x):
        return x + 1

    home.entry = entry
    user.entry = entry  # as after ``from home import entry``
    sys.modules[home.__name__], sys.modules[user.__name__] = home, user
    try:
        tracer = Tracer("t")
        tracer.install([Target(home.__name__, "entry", "entry", "layer")])
        assert user.entry(1) == 2 and home.entry(2) == 3
        tracer.uninstall()
        assert user.entry is entry and home.entry is entry
        assert [s.name for s in tracer.spans] == ["entry", "entry"]
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_wrappers_do_not_record_in_a_forked_child():
    tracer = Tracer("t")
    tracer.install([Target(_Layer, "inner", "Layer.inner", "layer")])
    try:
        pid = os.fork()
        if pid == 0:  # child: the wrapper must call straight through
            _Layer().inner(1)
            os._exit(0 if not tracer.spans else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        tracer.uninstall()
    assert os.waitstatus_to_exitcode(status) == 0


# -- percentile and sample-count rule -------------------------------------------


def test_p90_needs_one_hundred_samples():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    with pytest.raises(ValueError):
        percentile(values[:99], 90)


def test_median_needs_no_tail_samples():
    assert percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- workload generators -----------------------------------------------------------

PACKETS = 100_000


@pytest.mark.parametrize("name", ["shuffled", "bursty", "flood"])
def test_workloads_are_deterministic_per_seed(name):
    a, b, c = (make_workload(name, s, PACKETS) for s in (3, 3, 4))
    assert np.array_equal(a.packets, b.packets)
    assert np.array_equal(a.flow_ids, b.flow_ids)
    assert np.array_equal(a.flow_sizes, b.flow_sizes)
    assert all(np.array_equal(x, y) for x, y in zip(a.query_batches, b.query_batches))
    assert not np.array_equal(a.packets, c.packets)
    assert a.flow_sizes.sum() == a.num_packets
    assert set(np.unique(a.packets)) == set(a.flow_ids)


def test_workloads_reach_their_stated_locality():
    # Default sizes: flood is shorter than shuffled and must still have
    # ten times its distinct flows.
    shuffled = make_workload("shuffled", 5)
    bursty = make_workload("bursty", 5)
    flood = make_workload("flood", 5)
    assert shuffled.packets_per_run < 1.1
    assert bursty.packets_per_run > 8
    assert len(flood.flow_ids) >= 10 * len(shuffled.flow_ids)
    assert bursty.live_queries and len(bursty.query_batches) == len(bursty.chunks())
    assert not shuffled.live_queries and not flood.live_queries


# -- entry points ------------------------------------------------------------------


def test_every_entry_point_resolves_and_missing_ones_are_reported(monkeypatch):
    import layers

    found, missing = layers.targets()
    assert missing == []
    assert [t.name for t in found] == [name for _, name, _, _ in layers.ENTRY_POINTS]
    monkeypatch.setattr(
        layers, "ENTRY_POINTS", (("repro.core.split", "no_such_entry", "core", None),)
    )
    assert layers.targets() == ([], ["no_such_entry"])
