"""Tests of the benchmark's own code: span arithmetic, wrapper hygiene, checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys

import numpy as np
import pytest

import tracing
from run import summarize
from session import pin_problem
from tmcn import Tape, fusion, parameter
from tracing import Span, Tracer, layer_metrics, self_times, traced, wrapped_attributes


def _span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_times_subtract_covered_child_intervals():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 3.0, 6.0, root)         # overlaps a by 1: covered once
    c = _span("c", 9.0, 12.0, root)        # runs past root's end: clipped to 1
    leaf = _span("leaf", 1.5, 2.0, a)
    selfs = self_times([root, a, b, c, leaf])
    assert selfs[root] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[a] == pytest.approx(3.0 - 0.5)
    assert selfs[b] == pytest.approx(3.0)
    assert selfs[c] == pytest.approx(3.0)
    assert selfs[leaf] == pytest.approx(0.5)


def test_tracer_nests_spans_and_rejects_misordered_close():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent is outer and outer.parent is None
    assert (outer.duration, inner.duration) == (3.0, 1.0)
    first = tracer.begin("first")
    tracer.begin("second")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def _originals():
    return {(owner, attr): owner.__dict__[attr] for owner, attr in wrapped_attributes()}


def test_every_wrapper_is_removed_after_a_traced_block():
    before = _originals()
    tracer = Tracer()
    with traced(tracer):
        during = _originals()
    assert all(during[key] is not raw for key, raw in before.items())
    assert _originals() == before
    with pytest.raises(ZeroDivisionError):
        with traced(Tracer()):
            1 / 0
    assert _originals() == before


def _scan_inputs(rng, n=2, length=5, channels=3, state=4):
    return [parameter(rng.normal(size=shape) * scale) for shape, scale in (
        ((n, length, channels), 1.0), ((n, length, channels), 0.1),
        ((n, length, state), 1.0), ((n, length, state), 1.0),
        ((channels, state), 1.0), ((channels,), 1.0))]


def _scan_grads(inputs):
    inputs[4].data = -np.abs(inputs[4].data)   # negative decay rates
    with Tape() as tape:
        # through the attribute the fusion block looks up, as the model does
        y = fusion.state_scan(*inputs)
        tape.backward((y * y).sum())
    return [t.grad for t in inputs]


def test_record_wrapper_charges_state_scan_backward_to_the_scan():
    plain = _scan_grads(_scan_inputs(np.random.default_rng(0)))
    tracer = Tracer()
    with traced(tracer):
        graded = _scan_grads(_scan_inputs(np.random.default_rng(0)))
    for g0, g1 in zip(plain, graded):
        assert np.array_equal(g0, g1)          # tracing changes no arithmetic
    charged = {s.charged.name for s in tracer.spans if s.name == tracing.BWD and s.charged}
    assert "tensor.state_scan" in charged
    m = layer_metrics(tracer)
    assert m["tensor.state_scan.calls"] == 1
    assert m["tensor.state_scan.fwd_s"] > 0
    assert m["tensor.state_scan.bwd_s"] > 0
    assert m["tensor.state_scan.bwd_s"] < m["tensor.backward_s"]
    assert m["tensor.state_scan.bytes_computed"] == 3 * 8 * 2 * 5 * 3 * 4


def _report(*reps):
    return {"setup_s": 1.0, "peak_rss_mib": 100.0, "reps": list(reps)}


def _rep(digests, error=None):
    return {"train_s": 2.0, "eval_s": [0.5] * len(digests), "acc": [1.0] * len(digests),
            "nmi": [1.0] * len(digests), "digests": digests,
            "attempted": 1 + len(digests), "error": error}


def _untimed(digests, error=None):
    return {"timed": False, "digests": digests, "attempted": 1, "error": error}


def test_summarize_counts_non_identical_reruns_and_errors_as_failures():
    samples, attempted, failed, notes = summarize([
        _report(_rep([[1, "x"], [2, "y"]]), _untimed([[1, "x"]])),
        _report(_rep([[1, "q"], [2, "y"]]), _untimed([[1, "z"]])),   # rerun differs
        _report(_rep([["train", "t"]]), _rep([["train", "u"]])),      # retrain differs
        _report(_rep([], error="CheckFailed: nan")),
    ])
    assert (attempted, failed) == (3 + 1 + 3 + 1 + 2 + 2 + 1, 1 + 1 + 1)
    # sessions draw their own rows: seed 1 differs between the first two, which is no failure
    assert samples["train_s"] == [2.0, 2.0, 2.0]      # failed reps give no timing
    assert samples["eval_s"] == [0.5] * 5
    assert len(notes) == 3


def test_summarize_takes_no_timing_from_untimed_calls_but_counts_their_failure():
    samples, attempted, failed, notes = summarize([
        _report(_untimed([]), _rep([[1, "x"]])),
        _report(_untimed([], error="CheckFailed: nan")),
    ])
    assert (attempted, failed) == (1 + 2 + 1, 1)
    assert samples["train_s"] == [2.0] and samples["eval_s"] == [0.5]
    assert notes == ["CheckFailed: nan"]


def test_pin_guard(monkeypatch):
    assert "numpy was imported" in pin_problem()
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setenv("TMCN_THREADS", "2")
    assert "TMCN_THREADS=2" in pin_problem()
    monkeypatch.setenv("TMCN_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert "OPENBLAS_NUM_THREADS=4" in pin_problem()
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert pin_problem() is None
