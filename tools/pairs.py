"""Alternating benchmark pairs of two source trees, read as one summary.

Run from the repository root:

    python3 tools/pairs.py --workload mc --seed 1 --seconds 25 --pairs 10 \\
        --src a=../parent/src --src b=src

The first ``--src`` is the baseline (a), the second the change (b).  Each
side runs in a temporary checkout of its own: a copy of this checkout's
``bench/`` (without ``out/``) and ``BENCHMARK.json``, and a copy of its DIR
as ``src/``.  The copies are not links, since ``bench/run.py`` refuses a
``rankinglab`` that resolves outside its own ``src/``.  Pair p runs
``python3 -B bench/run.py --workload W --seed N --seconds S --trace 0`` once
on each side, a first when p is even and b first when p is odd, with no
bytecode written.  A child process of its own then reads the run's record
from ``bench/out``: Linux carries a process's peak RSS over fork and exec
into ``ru_maxrss``, from which ``bench/run.py`` reports ``peak_rss_mb``, so
the process that starts the runs never loads a record of some megabytes.

The summary, one JSON object on stdout:

* ``metrics``: for each end-to-end metric of ``BENCHMARK.json``, each side's
  median and quartiles (``statistics.quantiles``, n=4, inclusive; one run's
  value thrice), ``wins``, the pairs where b reads better (ties count for
  neither), and two verdicts.  ``gain`` holds when b wins at least nine
  tenths of the pairs and its median is better than a's by more than a's
  interquartile range.  ``regression`` is ``worse`` when b's median is worse
  than a's by more than the metric's ``bound`` times a's median; else
  ``unresolved`` when a's interquartile range is wider than that, unless
  every run of b reads better than every run of a; else ``within``.
* ``ops``: per op kind, each side's medians over its runs of the summed
  ``cpu_s`` and ``ref_s`` of that kind's ops.
* ``runs``: per pair, which side ran first, and per side the median
  ``probe_s`` of its ops, ``correct``, ``failed`` and every metric's value;
  ``probe_flag`` marks a pair whose two probe medians differ by more than 5%
  of the smaller one.
* ``correct``: every run was ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: a pair's two probe medians differ by more than this share of the smaller one
PROBE_SPREAD = 0.05


def _spread(xs: Sequence[float]) -> dict:
    """The median and the inclusive quartiles of xs."""
    qs = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": qs[0], "q3": qs[2]}


def _metric(metric: dict, a: List[float], b: List[float]) -> dict:
    """Both sides' spreads, b's wins and the two verdicts of one metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    sa, sb = _spread(a), _spread(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    gain = sign * (sb["median"] - sa["median"])  # positive when b is better
    bound = metric["bound"] * abs(sa["median"])
    if -gain > bound:
        regression = "worse"
    elif sa["q3"] - sa["q1"] > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        regression = "unresolved"
    else:
        regression = "within"
    return {
        "better": metric["better"], "bound": metric["bound"], "a": sa, "b": sb,
        "wins": wins, "gain": 10 * wins >= 9 * len(a) and gain > sa["q3"] - sa["q1"],
        "regression": regression,
    }


def reading(record: dict) -> dict:
    """What a summary reads of one run's record: its ``summary``, the summed
    ``[cpu_s, ref_s]`` of its ops per op kind, and its median ``probe_s``."""
    kind = {op["id"]: op["check"] for op in record["ops"]}
    ops: Dict[str, List[float]] = {}
    for r in record["base"]:
        sums = ops.setdefault(kind[r["id"]], [0.0, 0.0])
        sums[0] += r["cpu_s"]
        sums[1] += r["ref_s"]
    probe_s = statistics.median(r["probe_s"] for r in record["base"])
    return {"summary": record["summary"], "ops": ops, "probe_s": probe_s}


def summarise(spec: dict, sides: Sequence[str], pairs: List[Tuple[str, dict]]) -> dict:
    """The summary of ``pairs``: per pair, the side that ran first and each side's reading."""
    a, b = sides

    def values(name: str, side: str) -> List[float]:
        return [rd[side]["summary"]["metrics"][name]["value"] for _, rd in pairs]

    metrics = {m["name"]: _metric(m, values(m["name"], a), values(m["name"], b))
               for m in spec["end_to_end"]}
    kinds = sorted({k for _, rd in pairs for s in sides for k in rd[s]["ops"]})
    ops = {
        k: {s: {clock: statistics.median(rd[s]["ops"].get(k, (0.0, 0.0))[i] for _, rd in pairs)
                for i, clock in enumerate(("cpu_s", "ref_s"))} for s in sides}
        for k in kinds
    }
    runs = []
    for first, rd in pairs:
        row = {"first": first}
        for s in sides:
            summary = rd[s]["summary"]
            row[s] = {
                "probe_s": rd[s]["probe_s"],
                "correct": summary["correct"], "failed": summary["failed"],
                "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
            }
        pa, pb = row[a]["probe_s"], row[b]["probe_s"]
        row["probe_flag"] = abs(pa - pb) > PROBE_SPREAD * min(pa, pb)
        runs.append(row)
    correct = all(row[s]["correct"] for row in runs for s in sides)
    return {"sides": list(sides), "pairs": len(pairs), "correct": correct,
            "metrics": metrics, "ops": ops, "runs": runs}


def _checkout(tmp: Path, src: Path) -> Path:
    """A checkout under tmp that runs the bench of this checkout on a copy of src."""
    if not (src / "rankinglab" / "__init__.py").is_file():
        sys.exit(f"error: no rankinglab sources under {src}")
    shutil.copytree(ROOT / "bench", tmp / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(src, tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp


def _child(argv: List[str], cwd: Path) -> str:
    """The standard output of ``argv`` run in ``cwd`` with no bytecode written."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-B", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} failed in {cwd}:\n{done.stderr}")
    return done.stdout


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``bench/run.py`` run in ``checkout``, and its reading."""
    _child(["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"], checkout)
    out = checkout / "bench" / "out" / f"result-{workload}-s{seed}-t0.json"
    return json.loads(_child([__file__, "--read", str(out)], checkout))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--pairs", type=int)
    p.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                   help="a side: its label and the src directory to run; give a, then b")
    p.add_argument("--read", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.read is not None:
        print(json.dumps(reading(json.loads(args.read.read_text(encoding="utf-8")))))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.pairs):
        p.error("give --workload, --seed, --seconds and --pairs")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if len(args.src) != 2 or not all("=" in spec for spec in args.src):
        p.error("give --src LABEL=DIR twice, the baseline first")
    srcs = dict(spec.split("=", 1) for spec in args.src)
    if len(srcs) != 2:
        p.error("the two --src labels must differ")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = list(srcs)
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {s: _checkout(Path(tmp) / s, Path(srcs[s])) for s in sides}
        pairs = []
        for k in range(args.pairs):
            order = sides if k % 2 == 0 else sides[::-1]
            print(f"pair {k + 1} of {args.pairs}: {' then '.join(order)}", file=sys.stderr)
            read = {s: _run(checkouts[s], args.workload, args.seed, args.seconds) for s in order}
            pairs.append((order[0], read))
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           **summarise(spec, sides, pairs)}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
