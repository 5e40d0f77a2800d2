"""Per-layer timings of rankinglab on fixed inputs: BENCH_<pr>.json.

Run from the repository root, with no bytecode cache under the timed sources:

    python3 tools/layers.py --src parent=../parent/src --src change=src --out BENCH_31.json

Each row times one entry point, or one CLI command run in-process, on
inputs made from fixed seeds and sizes.  Each column (``--src LABEL=PATH``,
default ``change`` on this checkout's ``src``) imports ``rankinglab`` from
the ``src`` directory PATH in a process of its own; the runs of a row
alternate between the columns.  A row is timed ``--repeats`` times a column
(default 7), and its thread CPU time per call is reported as the min and the
median, in milliseconds, with the machine and the Python version.  A row
whose call takes under 1 ms is timed as a loop of calls, as many as make
each timing last about 5 ms or more in every column, the same count in
every column; ``calls`` lists each row's count.  After its timings, each
``probability.mc_expected_size`` row also gives ``peak_kb`` per column, the
``tracemalloc`` peak of one call in KiB, with the column's caches as the
timed calls left them.  The rows import the maximum matching from
``graph`` and the cascade on positions (``_frames``, ``_cascade``) from
``structure``, so a checkout from before both were there cannot be timed.
``--quick`` shrinks every input to its smallest size, for a smoke test.

Without ``--quick``, each column's Tier-1 suite then runs once, one column
after the other: the ``tests`` beside its ``src``, under pytest with that
``src`` on the path.  ``tier1`` gives its wall time in seconds, pytest's
summary line and the ten slowest test phases.

A ``__pycache__`` under the timed sources would let that side skip
compiling and read low, so the script refuses to run while one exists, and
its processes write none.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from subprocess import PIPE
from typing import Callable, Dict, List, Tuple

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
STRUCTURAL = ("ranking-matching", "lemma5", "lemma6", "lemma7", "lemma8", "lemma9", "rank-move")
#: the name prefix of the rows whose ``tracemalloc`` peak is read as well
PEAK = "probability.mc_expected_size"
#: per row family, (full size, --quick size)
SIZES = {
    "shuffle": (100_000, 1_000),
    "side": (400, 30),
    "tally": (8, 4),
    "chain": (7, 4),
    "kuhn": ((8, 150), (4, 20)),
    "gamma": (2, 1),
    "mc_bytes": ((24, 5000), (8, 100)),
    "mc_small": ((12, 5000), (4, 100)),
    "mc_wide": ((400, 200), (50, 10)),
    "stair": (580, 20),
    "files": (8, 2),
}


def _program(src: Path):
    if not (src / "rankinglab" / "__init__.py").is_file():
        sys.exit(f"error: no rankinglab sources under {src}")
    sys.path.insert(0, str(src))
    import rankinglab
    import rankinglab.cli

    if Path(rankinglab.__file__).resolve().parent != src.resolve() / "rankinglab":
        sys.exit(f"error: rankinglab imported from {rankinglab.__file__}, not {src}")
    return rankinglab


def _staircase(rl, n: int):
    """u_i adjacent to v_i and v_(i+1): deleting v1 cascades along all 2n vertices."""
    v = [f"v{i}" for i in range(1, n + 1)]
    u = [f"u{i}" for i in range(1, n + 1)]
    edges = [(u[i], v[i]) for i in range(n)] + [(u[i], v[i + 1]) for i in range(n - 1)]
    return rl.BipartiteInstance(edges, rl.Permutation(v), rl.Permutation(u))


def rows(rl, tmp: Path, quick: bool) -> List[Tuple[str, Callable[[], object]]]:
    """(name, callable) for every row, with its inputs made up front."""
    from rankinglab.engine import _greedy
    from rankinglab.graph import _max_matching_size
    from rankinglab.probability import _size_counts
    from rankinglab.structure import _cascade, _frames

    def size(key):
        return SIZES[key][quick]

    side = size("side")
    big = rl.gen_random(side, side, 0.1, 1)
    big_text = rl.serialize_instance(big)
    reach, arrivals = big.reach, len(big.arrival)
    tally = rl.gen_perfect(size("tally"), 0.4, 1)[0]
    chain = rl.gen_perfect(size("chain"), 0.3, 7)
    (n_b, k_b), (n_s, k_s), (n_w, k_w) = size("mc_bytes"), size("mc_small"), size("mc_wide")
    mc_bytes = rl.gen_perfect(n_b, 0.3, 5)[0]
    mc_small = rl.gen_perfect(n_s, 0.3, 5)[0]  # 11 steps a batch: seeding weighs most
    mc_wide = rl.gen_random(n_w, n_w, 0.05, 1)
    stair = _staircase(rl, size("stair"))
    kuhn = [rl.gen_perfect(n, 0.1, 1)[0] for n in size("kuhn")]  # planted, n a side
    moved, planted = rl.gen_perfect(side, 0.05, 1)

    def designate(inst):  # a fresh instance a call, as the CLI parses one
        index = inst.ranking, inst.arrival, inst.reach
        return lambda: rl.perfect_matching_of(rl.BipartiteInstance._indexed(*index))

    def rank_move(inst, m_star):  # a fresh instance a call; the first unmatched v to rank 0
        index = inst.ranking, inst.arrival, inst.reach
        prs = _greedy(inst.reach, range(side), side)
        v = next(v for r, v in enumerate(inst.ranking) if r not in prs)
        return lambda: rl.check_rank_move(rl.BipartiteInstance._indexed(*index), m_star, v, 0)

    def write(name, inst):
        path = tmp / name
        path.write_text(rl.serialize_instance(inst), encoding="utf-8")
        return str(path)

    big_file, mc_file = write("big.obm", big), write("mcb.obm", mc_bytes)
    exact_file = write("p.obm", tally)
    dense_file = write("d88.obm", rl.gen_random(8, 8, 0.6, 3))  # every vertex probed at 1000
    # the check workload's shape: small files of 3 to 8 a side, 20 probes each
    files = [
        (write(f"r{k}.obm", rl.gen_random(3 + k % 6, 3 + (k + 2) % 6, 0.3 + 0.1 * (k % 5), k)),
         write(f"p{k}.obm", rl.gen_perfect(3 + k % 4, 0.3, k)[0]))
        for k in range(size("files"))
    ]

    def cli(*argv):
        return lambda: rl.cli.main(list(argv))

    def check(suite):
        def go():  # rank-move needs a perfect matching
            for plain, planted in files:
                path = planted if suite == "rank-move" else plain
                rl.cli.main(["check", path, "--suite", suite, "--count", "20", "--seed", "1"])

        return go

    out = [
        ("rng.shuffled", lambda: rl.stream(7, 0).shuffled(range(size("shuffle")))),
        ("fileformat.parse_instance", lambda: rl.parse_instance(big_text)),
        ("engine._greedy", lambda: _greedy(reach, range(len(reach)), arrivals)),
        ("graph._max_matching_size", lambda: _max_matching_size(reach, arrivals)),
        ("graph.perfect_matching_of small", designate(kuhn[0])),
        ("graph.perfect_matching_of large", designate(kuhn[1])),
        ("probability._size_counts", lambda: _size_counts(tally.reach, len(tally.arrival))),
        ("probability.lemma3_chain", lambda: rl.lemma3_chain(*chain)),
        ("generators.gamma_min_ratio", lambda: rl.gamma_min_ratio(size("gamma"))),
        ("probability.mc_expected_size bytes", lambda: rl.mc_expected_size(mc_bytes, k_b, 1)),
        ("probability.mc_expected_size bytes small",
         lambda: rl.mc_expected_size(mc_small, k_s, 1)),
        ("probability.mc_expected_size wide", lambda: rl.mc_expected_size(mc_wide, k_w, 1)),
        # the suites' path on positions, then the same deletion named
        ("structure._cascade",
         lambda: _cascade(_frames(stair.reach, len(stair.arrival)), True, 0, stair)),
        ("structure.removal_diff_offline", lambda: rl.removal_diff_offline(stair, "v1")),
        ("structure.check_rank_move large", rank_move(moved, planted)),
        ("cli run", cli("run", big_file)),
        ("cli exact", cli("exact", exact_file)),
        ("cli mc", cli("mc", mc_file, "--samples", str(k_b), "--seed", "1")),
        ("cli exact --dist", cli("exact", exact_file, "--dist")),
        ("cli mc --dist", cli("mc", mc_file, "--samples", str(k_b), "--seed", "1", "--dist")),
        ("cli bound", cli("bound", "--n", "50", "--exact")),
        ("cli gamma", cli("gamma", "--n", "2" if not quick else "1")),
        ("cli gen", cli("gen", "random", "--offline", str(side), "--online", str(side),
                        "--edge-prob", "0.1", "--seed", "1", "--out", str(tmp / "gen.obm"))),
        ("cli gen gamma", cli("gen", "gamma", "--n", str(size("gamma")),
                              "--out-dir", str(tmp / "gamma"))),
    ]
    out += [(f"cli check --suite {s}", check(s)) for s in STRUCTURAL]
    out.append(("cli check --suite lemma9 --count 1000",
                cli("check", dense_file, "--suite", "lemma9", "--count", "1000", "--seed", "1")))
    return out


def serve(src: Path, quick: bool) -> int:
    """Import ``src``, print the row names, then time each "k calls" read from stdin.

    Row k runs ``calls`` times in a row, and the thread CPU time per call
    is printed, in ms.  For "k peak" row k runs once under ``tracemalloc``,
    and its peak is printed, in KiB.
    """
    rl, out = _program(src), sys.stdout
    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
    with tempfile.TemporaryDirectory() as tmp, quiet[0], quiet[1]:
        table = rows(rl, Path(tmp), quick)
        rl.cli.main(["bound", "--n", "1"])  # the CLI builds its parser once
        print(json.dumps([name for name, _ in table]), file=out, flush=True)
        for line in sys.stdin:
            k, calls = line.split()
            call = table[int(k)][1]
            if calls == "peak":
                tracemalloc.start()
                call()
                print(tracemalloc.get_traced_memory()[1] / 1024, file=out, flush=True)
                tracemalloc.stop()
                continue
            calls = int(calls)
            t0 = time.thread_time()
            for _ in range(calls):
                call()
            print((time.thread_time() - t0) * 1000.0 / calls, file=out, flush=True)
    return 0


def _time(proc: subprocess.Popen, k: int, calls) -> float:
    """Row k's thread CPU ms per call, over ``calls`` calls in the process ``proc``,
    or with ``calls`` "peak" the ``tracemalloc`` peak of one call in KiB."""
    proc.stdin.write(f"{k} {calls}\n")
    proc.stdin.flush()
    return float(proc.stdout.readline())


def _calls(procs, k: int) -> int:
    """How many calls a timing of row k makes: 1 for a call of 1 ms or more, else
    the most that any column needs, doubling from 1, to last 5 ms."""
    most = 1
    for proc in procs:
        calls, per = 1, _time(proc, k, 1)
        if per < 1.0:
            while calls * per < 5.0:
                calls *= 2
                per = _time(proc, k, calls)
        most = max(most, calls)
    return most


def measure(cols: Dict[str, Path], repeats: int, quick: bool) -> Tuple[dict, dict]:
    """Each row's min and median thread CPU time per call per column, in ms,
    with ``peak_kb`` on the ``PEAK`` rows, and each row's calls per timing
    (``_calls``).

    One process per column; the timings of a row alternate between them, the
    order flipping every repeat, so that a drift in host speed hits all alike.
    """
    for src in cols.values():
        caches = sorted(str(p) for p in src.rglob("__pycache__"))
        if caches:
            sys.exit(f"error: remove the bytecode caches first: {' '.join(caches)}")
    argv = [sys.executable, "-B", __file__, *(["--quick"] if quick else []), "--serve"]
    procs = {
        label: subprocess.Popen([*argv, str(src)], stdin=PIPE, stdout=PIPE, text=True)
        for label, src in cols.items()
    }
    try:
        names = {label: json.loads(p.stdout.readline() or "null") for label, p in procs.items()}
        table = next(iter(names.values()))
        if table is None or any(n != table for n in names.values()):
            sys.exit(f"error: the columns do not list the same rows: {names}")
        out, counts = {}, {}
        for k, name in enumerate(table):
            counts[name] = calls = _calls(procs.values(), k)
            times: Dict[str, List[float]] = {label: [] for label in procs}
            for r in range(repeats):
                for label in list(procs)[:: 1 - 2 * (r % 2)]:
                    times[label].append(_time(procs[label], k, calls))
            out[name] = {
                label: {"min_ms": round(min(ts), 4), "median_ms": round(statistics.median(ts), 4)}
                for label, ts in times.items()
            }
            if name.startswith(PEAK):
                for label, proc in procs.items():
                    out[name][label]["peak_kb"] = round(_time(proc, k, "peak"), 1)
        return out, counts
    finally:
        for p in procs.values():
            p.stdin.close()
            p.wait()


#: one line of pytest's ``--durations`` table: seconds, phase, test id
_DURATION = re.compile(r"^(\d+\.\d+)s (\w+)\s+(\S+)$", re.M)


def _slowest(stdout: str) -> List[dict]:
    """The test phases of pytest's ``--durations`` table, slowest first."""
    return [{"s": float(s), "when": when, "test": test}
            for s, when, test in _DURATION.findall(stdout)]


def tier1(src: Path) -> dict:
    """Run the Tier-1 suite beside ``src`` once: wall seconds, summary, ten slowest."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--durations=10"]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=src.resolve().parent, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"wall_s": round(wall, 1), "summary": lines[-1] if lines else done.stderr.strip(),
            "slowest": _slowest(done.stdout)}


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return f"{cpu}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--src", action="append", metavar="LABEL=PATH",
                   help="a column: its label and the src directory to import rankinglab "
                        "from (default: change=this checkout's src)")
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--quick", action="store_true", help="every input at its smallest size")
    p.add_argument("--out", type=Path, help="store the columns in this JSON file")
    p.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.serve is not None:
        return serve(args.serve, args.quick)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    specs = args.src or [f"change={ROOT / 'src'}"]
    if not all("=" in spec for spec in specs):
        p.error("--src takes LABEL=PATH")
    cols = {label: Path(path) for label, path in (spec.split("=", 1) for spec in specs)}
    rows_ms, calls = measure(cols, args.repeats, args.quick)
    doc = {"machine": machine(), "python": platform.python_version(),
           "repeats": args.repeats, "quick": args.quick, "unit": "thread CPU ms per call",
           "columns": list(cols), "rows": rows_ms, "calls": calls}
    if not args.quick:
        doc["tier1"] = {label: tier1(src) for label, src in cols.items()}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
