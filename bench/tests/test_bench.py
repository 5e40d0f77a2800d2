"""Tests of the benchmark's own arithmetic: span self time, tail rule, throughput, error layer.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layertrace  # noqa: E402
import run  # noqa: E402
from run import end_to_end, tail  # noqa: E402


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    spans = layertrace.Spans(clock=_clock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))

    def outer():
        spans.call("graph", "graph.partner", lambda: None, (), {})  # 2 .. 5
        spans.call("rng", "rng.below", lambda: None, (), {})  # 6 .. 7
        return "done"

    assert spans.call("probability", "probability.f", outer, (), {}) == "done"
    selfs = spans.self_seconds()
    assert selfs["probability"] == 10.0 - 3.0 - 1.0
    assert selfs["graph"] == 3.0
    assert selfs["rng"] == 1.0
    assert spans.stack == [[layertrace.ROOT, 10.0]]
    rows = {(r["caller"], r["callee"]): r for r in spans.table()}
    assert rows[("probability", "graph.partner")]["total_s"] == 3.0
    assert rows[(layertrace.ROOT, "probability.f")]["self_s"] == 6.0


def test_same_layer_call_is_not_a_span():
    spans = layertrace.Spans(clock=_clock(0.0, 4.0))

    def outer():
        return spans.call("graph", "graph.neighbors", lambda: 7, (), {})

    assert spans.call("graph", "graph.max_card_matching", outer, (), {}) == 7
    assert [r["callee"] for r in spans.table()] == ["graph.max_card_matching"]
    assert spans.self_seconds()["graph"] == 4.0


def test_span_closes_when_the_call_raises():
    spans = layertrace.Spans(clock=_clock(0.0, 1.0, 3.0, 4.0))

    def boom():
        raise RecursionError

    def outer():
        try:
            spans.call("structure", "structure.zig", boom, (), {})  # 1 .. 3
        except RecursionError:
            pass

    spans.call("suites", "suites.suite_lemma8", outer, (), {})  # 0 .. 4
    assert spans.self_seconds()["suites"] == 2.0
    assert spans.self_seconds()["structure"] == 2.0
    assert len(spans.stack) == 1


def test_tail_has_ten_ops_beyond_it():
    value, pct, n = tail([float(x) for x in range(30, 0, -1)])
    assert (value, n) == (20.0, 30)
    assert abs(pct - 200.0 / 3.0) < 1e-12
    value, pct, n = tail([float(x) for x in range(1, 12)])
    assert (value, pct, n) == (1.0, 100.0 / 11.0, 11)


def test_tail_without_ten_ops_beyond_reports_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([float(x) for x in range(10)]) == (9.0, 100.0, 10)


def test_throughput_counts_passed_ops_over_their_own_time():
    records = [
        {"ref_s": 0.5, "status": "pass"},
        {"ref_s": 1.5, "status": "pass"},
        {"ref_s": 2.0, "status": "deadline"},
    ]
    m = end_to_end(records, [0.3, 0.1, 0.2])
    assert m["ops_per_ref_s"] == 1.0
    assert m["op_ref_p50_ms"] == 1500.0
    assert m["op_pass_ratio"] == 2 / 3
    assert m["setup_s"] == 0.2


def test_op_time_is_scaled_by_the_median_of_the_nearest_probes():
    records = [{"cpu_s": 0.004} for _ in range(4)]
    # probe times in units of the reference: 2x slow around ops 0-1, 1x after
    ref = run.PROBE_REF_S
    probes = [(0, 2 * ref), (1, 2 * ref), (2, 2 * ref), (2, ref), (3, ref), (4, ref), (4, ref)]
    run.scale_to_reference(records, probes)
    assert [r["probe_s"] for r in records] == [2 * ref, 2 * ref, ref, ref]
    assert records[0]["ref_s"] == 0.002
    assert records[3]["ref_s"] == 0.004


def _in_layer(layer, source):
    ns = {"__name__": f"{layertrace.PACKAGE}.{layer}"}
    exec(source, ns)
    return ns


def test_error_is_charged_to_the_layer_with_most_frames():
    graph = _in_layer("graph", "def partner(k):\n    raise RecursionError\n")
    structure = _in_layer(
        "structure",
        "def zig(k):\n    return partner(k) if k == 0 else zig(k - 1)\n",
    )
    structure["partner"] = graph["partner"]
    try:
        structure["zig"](5)
    except RecursionError as e:
        assert layertrace.error_layer(e) == "structure"
    try:
        structure["zig"](0)
    except RecursionError as e:
        assert layertrace.error_layer(e) == "graph"  # tie goes to the innermost
