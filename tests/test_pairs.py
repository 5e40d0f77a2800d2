"""The pair summariser of ``tools/pairs.py``, on fixed records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"

SPEC = {"end_to_end": [
    {"name": "ops_per_ref_s", "better": "higher", "bound": 0.25},
    {"name": "op_ref_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "op_ref_tail_ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "eight_wins", "better": "higher", "bound": 0.25},
]}

#: ten pairs of each metric's (a, b) values
A_OPS = [100.0 + k for k in range(10)]
VALUES = {
    # b ahead in nine pairs, but its median only 1.0 above a's, whose IQR is 4.5
    "ops_per_ref_s": (A_OPS, [x + 2 for x in A_OPS[:9]] + [90.0]),
    # b 2.0 lower in every pair, with a's IQR 0.9
    "op_ref_p50_ms": ([10.0 + 0.2 * k for k in range(10)], [8.0 + 0.2 * k for k in range(10)]),
    # a's IQR of 10 is wider than the bound of 3.75, and every b reads better than every a
    "op_ref_tail_ms": ([10.0, 20.0] * 5, [9.0] * 10),
    # 3 MB worse, above the bound of 2 MB
    "peak_rss_mb": ([20.0] * 10, [23.0] * 10),
    # ties, and a's IQR of 0.25 is wider than the bound of 0.0625
    "setup_s": ([0.1, 0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4, 0.4],) * 2,
    # b's median 1.0 ahead, past a's IQR of 0, but in eight pairs only
    "eight_wins": ([1.0] * 10, [2.0] * 8 + [0.0] * 2),
}
#: each pair's probe medians: a 4% apart in pair 0, 10% in pair 1, else equal
PROBES = [(0.001, 0.00104), (0.001, 0.0011)] + [(0.001, 0.001)] * 8


def _pairs():
    module = importlib.util.spec_from_file_location("pairs", SCRIPT)
    pairs = importlib.util.module_from_spec(module)
    module.loader.exec_module(pairs)
    return pairs


def _record(k: int, side: int) -> dict:
    """Pair k's record of one side: three ops, two mc and one run."""
    cpu = (0.01, 0.01, 0.005) if side == 0 else (0.008, 0.008, 0.005)
    probe = PROBES[k][side]
    base = [{"id": i, "cpu_s": c, "ref_s": 2 * c, "probe_s": probe, "status": "pass"}
            for i, c in enumerate(cpu)]
    metrics = {name: {"value": ab[side][k], "unit": "x"} for name, ab in VALUES.items()}
    return {
        "ops": [{"id": 0, "check": "mc"}, {"id": 1, "check": "mc"}, {"id": 2, "check": "run"}],
        "base": base,
        "summary": {"correct": not (side and k == 3), "failed": 0, "metrics": metrics},
    }


def _summary(n: int) -> dict:
    """The summary of the first n pairs, each record read as the tool reads it."""
    tool = _pairs()
    pairs = [("ab"[k % 2], {s: tool.reading(_record(k, i)) for i, s in enumerate("ab")})
             for k in range(n)]
    return tool.summarise(SPEC, ["a", "b"], pairs)


@pytest.fixture(scope="module")
def summary():
    return _summary(10)


def test_nine_wins_short_of_the_iqr_is_no_gain(summary):
    m = summary["metrics"]["ops_per_ref_s"]
    assert m["a"] == pytest.approx({"median": 104.5, "q1": 102.25, "q3": 106.75})
    assert m["b"] == pytest.approx({"median": 105.5, "q1": 103.25, "q3": 107.75})
    assert (m["wins"], m["gain"], m["regression"]) == (9, False, "within")
    assert (m["better"], m["bound"]) == ("higher", 0.25)


def test_eight_wins_past_the_iqr_is_no_gain(summary):
    m = summary["metrics"]["eight_wins"]
    assert m["a"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert m["b"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert (m["wins"], m["gain"], m["regression"]) == (8, False, "within")


def test_every_pair_won_past_the_iqr_is_a_gain(summary):
    m = summary["metrics"]["op_ref_p50_ms"]
    assert m["a"] == pytest.approx({"median": 10.9, "q1": 10.45, "q3": 11.35})
    assert m["b"] == pytest.approx({"median": 8.9, "q1": 8.45, "q3": 9.35})
    assert (m["wins"], m["gain"], m["regression"]) == (10, True, "within")


def test_regression_verdicts(summary):
    tail, rss, setup = (summary["metrics"][n] for n in ("op_ref_tail_ms", "peak_rss_mb",
                                                         "setup_s"))
    assert tail["a"] == pytest.approx({"median": 15.0, "q1": 10.0, "q3": 20.0})
    assert tail["b"] == pytest.approx({"median": 9.0, "q1": 9.0, "q3": 9.0})
    assert (tail["wins"], tail["gain"], tail["regression"]) == (10, False, "within")
    assert rss["a"] == pytest.approx({"median": 20.0, "q1": 20.0, "q3": 20.0})
    assert rss["b"] == pytest.approx({"median": 23.0, "q1": 23.0, "q3": 23.0})
    assert (rss["wins"], rss["gain"], rss["regression"]) == (0, False, "worse")
    assert setup["a"] == setup["b"] == pytest.approx({"median": 0.25, "q1": 0.125, "q3": 0.375})
    assert (setup["wins"], setup["gain"], setup["regression"]) == (0, False, "unresolved")


def test_op_kinds_runs_and_probes(summary):
    assert summary["sides"] == ["a", "b"] and summary["pairs"] == 10
    ops = summary["ops"]
    assert list(ops) == ["mc", "run"] and all(list(ops[k]) == ["a", "b"] for k in ops)
    assert ops["mc"]["a"] == pytest.approx({"cpu_s": 0.02, "ref_s": 0.04})
    assert ops["mc"]["b"] == pytest.approx({"cpu_s": 0.016, "ref_s": 0.032})
    assert ops["run"]["a"] == ops["run"]["b"] == pytest.approx({"cpu_s": 0.005, "ref_s": 0.01})
    runs = summary["runs"]
    assert [r["first"] for r in runs] == list("ababababab")
    assert [r["probe_flag"] for r in runs] == [False, True] + [False] * 8
    assert runs[1]["a"]["probe_s"] == 0.001 and runs[1]["b"]["probe_s"] == 0.0011
    assert runs[4]["b"]["metrics"]["ops_per_ref_s"] == 106.0
    assert [r["b"]["correct"] for r in runs] == [k != 3 for k in range(10)]
    assert all(r["a"]["correct"] and r["a"]["failed"] == 0 for r in runs)
    assert summary["correct"] is False


def test_one_pair_reads_each_value_as_its_quartiles():
    m = _summary(1)["metrics"]["peak_rss_mb"]
    assert m["a"] == {"median": 20.0, "q1": 20.0, "q3": 20.0}
    assert (m["wins"], m["gain"], m["regression"]) == (0, False, "worse")
