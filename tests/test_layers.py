"""The per-layer timing script, ``tools/layers.py``, at its smallest sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "layers.py"

ROWS = [
    "rng.shuffled",
    "fileformat.parse_instance",
    "engine._greedy",
    "graph._max_matching_size",
    "graph.perfect_matching_of small",
    "graph.perfect_matching_of large",
    "probability._size_counts",
    "probability.lemma3_chain",
    "generators.gamma_min_ratio",
    "probability.mc_expected_size bytes",
    "probability.mc_expected_size bytes small",
    "probability.mc_expected_size wide",
    "probability.mc_expected_size cut bytes",
    "probability.mc_expected_size cut wide",
    "structure._cascade",
    "structure.removal_diff_offline",
    "structure.check_rank_move large",
    "cli run",
    "cli exact",
    "cli mc",
    "cli exact --dist",
    "cli mc --dist",
    "cli bound",
    "cli gamma",
    "cli gen",
    "cli gen gamma",
    *(
        f"cli check --suite {s}"
        for s in ("ranking-matching", "lemma5", "lemma6", "lemma7", "lemma8", "lemma9")
    ),
    "cli check --suite rank-move",
    "cli check --suite lemma9 --count 1000",
]


def _sources(tmp_path: Path) -> Path:
    """A copy of the package with no bytecode cache, as the script requires."""
    src = tmp_path / "src"
    shutil.copytree(
        ROOT / "src" / "rankinglab", src / "rankinglab",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return src


def _layers(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", str(SCRIPT), "--quick", "--repeats", "1", *args],
        capture_output=True, text=True, timeout=60,
    )


def test_one_repeat_lists_every_row(tmp_path):
    src = _sources(tmp_path)
    out = tmp_path / "bench.json"
    done = _layers("--src", f"a={src}", "--src", f"b={src}", "--out", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["a", "b"] and doc["repeats"] == 1 and doc["quick"]
    assert doc["machine"] and doc["python"]
    assert list(doc["rows"]) == list(doc["calls"]) == ROWS
    assert all(calls >= 1 for calls in doc["calls"].values())
    for name, cells in doc["rows"].items():
        assert set(cells) == {"a", "b"}
        assert all(0 <= c["min_ms"] <= c["median_ms"] for c in cells.values())
        if name.startswith("probability.mc_expected_size"):
            assert all(c["peak_kb"] > 0 for c in cells.values()), name
        else:
            assert not any("peak_kb" in c for c in cells.values()), name
    assert not list(src.rglob("__pycache__"))


def test_refuses_a_bytecode_cache(tmp_path):
    src = _sources(tmp_path)
    (src / "rankinglab" / "__pycache__").mkdir()
    done = _layers("--src", f"change={src}")
    assert done.returncode != 0
    assert "remove the bytecode caches first" in done.stderr
    assert done.stdout == ""


def test_reads_the_slowest_tests_off_pytest():
    stdout = (
        "....\n============ slowest 10 durations ============\n"
        "4.00s call     tests/test_a.py::TestA::test_one[1-2]\n"
        "0.51s setup    tests/test_b.py::test_two\n"
        "\n(3 durations < 0.005s hidden.)\n4 passed in 5.01s\n"
    )
    code = "import sys; sys.path.insert(0, sys.argv[1]); import layers; " \
           "print(repr(layers._slowest(sys.stdin.read())))"
    done = subprocess.run([sys.executable, "-B", "-c", code, str(SCRIPT.parent)],
                          input=stdout, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr([
        {"s": 4.0, "when": "call", "test": "tests/test_a.py::TestA::test_one[1-2]"},
        {"s": 0.51, "when": "setup", "test": "tests/test_b.py::test_two"},
    ]) + "\n"
