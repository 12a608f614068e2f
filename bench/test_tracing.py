"""The tracer sees calls between layers, its self times add up, its nesting
check rejects spans that do not nest, and a pass flags any failure that is
not a known fault.

    python3 -m pytest bench/test_tracing.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def test_spans_cross_layers_and_self_times_add_up():
    from freeprob import cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.recording = True
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fid", "--c", "3", "--order", "60"]) == 2
    end = time.perf_counter()
    tracer.recording = False

    names = {sid: name for sid, _parent, name, _s, _e in tracer.spans}
    edges = {(names.get(parent), name) for _sid, parent, name, _s, _e in tracer.spans}
    # cli binds fid_test by `from .transforms import ...`, fid binds jacobi_from_moments
    assert (None, "cli.main") in edges
    assert ("cli.main", "fid.fid_test") in edges
    assert ("fid.fid_test", "fid.shifted_sequence_of_mu_c") in edges
    assert ("fid.fid_test", "jacobi.jacobi_from_moments") in edges

    assert tracer.nesting_errors(start, end) == []
    metrics = tracer.summary(start, end)
    rebuilt = sum(metrics[m] for m in tracing.LAYERS) + metrics["trace.uncovered_s"]
    assert abs(rebuilt - (end - start)) < 1e-9
    assert metrics["fid.scans"] == 1
    assert metrics["jacobi.pivots"] == 24  # pivots H_0 .. H_23, the first negative
    assert metrics["jacobi.pivot_bits_max"] > 0


def test_nesting_errors_reject_spans_that_do_not_nest():
    tracer = tracing.Tracer()
    good = [(0, -1, "cli.main", 1.0, 5.0), (1, 0, "fid.fid_test", 1.5, 3.0), (2, 0, "fid.fid_test", 3.0, 4.5)]
    tracer.spans = list(good)
    assert tracer.nesting_errors(0.0, 6.0) == []
    # a root that ends after the pass
    assert tracer.nesting_errors(0.0, 4.0)
    # a child that ends after its parent
    tracer.spans = good[:2] + [(2, 0, "fid.fid_test", 3.0, 5.5)]
    assert tracer.nesting_errors(0.0, 6.0)
    # siblings that overlap, so the children outlast their parent
    tracer.spans = good[:2] + [(2, 0, "fid.fid_test", 2.0, 5.0)]
    errors = tracer.nesting_errors(0.0, 6.0)
    assert any("overlaps" in e for e in errors) and any("children take" in e for e in errors)


def test_only_expected_failures_pass_unnoticed():
    import child
    import workloads

    def boom():
        raise ArithmeticError("no route")

    plan = workloads.Plan(
        [("ok", lambda: 1), ("known fault", boom), ("new fault", boom)], {},
        expected_failures=frozenset({"known fault"}))
    results, failures, errors, times = child.run_ops(plan)
    assert results == {"ok": 1}
    assert len(failures) == 2
    assert errors == ["new fault raised ArithmeticError: no route"]
    assert set(times) == {"ok", "known fault", "new fault"}
