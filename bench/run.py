"""rankinglab benchmark: one workload per run, or all of them with --all.

Run from the repository root:

    python3 bench/run.py --workload mc --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all            # every workload, untraced and traced

A run makes its inputs from the seed (``gen``, ``workloads``), sets up
three times in fresh interpreters and reports the median as ``setup_s``,
then runs every op of the workload in-process under a per-op deadline and
checks its output.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs a third as many ops three times, untraced, with spans
(``layertrace.Spans``) and with counters (``layertrace.Counts``), and
reports the per-layer metrics, so both kinds of run last about as long.

Op times are CPU time (``time.thread_time``, user plus system, of the one
thread that runs the program), and the per-op deadline is a CPU-time
interval timer (``ITIMER_PROF``).  The program is single-threaded and
CPU-bound, so on an idle machine CPU time and wall time agree; on a shared
host CPU time leaves out the time the process waited for a core or had it
taken by the hypervisor.  (While ``ITIMER_PROF`` is armed, Linux reads the
process-wide CPU clock only to the scheduler tick, so the thread clock is
used.)

A shared host also changes how much work a CPU second does: on a 2-vCPU VM
ten runs of the exact workload took from 0.87x to 1.21x their median CPU
time, every kind of op alike.  So the run times a fixed
interpreter-bound probe (``probe_seconds``) between ops, about every 0.1 s,
and scales each op's CPU time to the reference speed at which the probe
takes ``PROBE_REF_S``: ``ref_s = cpu_s * PROBE_REF_S / probe_s``, with
``probe_s`` the median of the five probes nearest the op.  The end-to-end
metrics are computed from ``ref_s``, ``setup_s`` likewise; ``cpu_s``,
``wall_s`` and ``probe_s`` of every op are kept in the record.

The last line of standard output is one JSON object; the full record
(provenance, every op with its argv, parameters and fingerprint, spans,
counts) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import layertrace
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: the probe's CPU time at the reference speed, and the CPU time between probes
PROBE_REF_S = 0.001
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 5
#: a run starts no op after this many seconds, so that it ends within 180 s
TIME_LIMIT_S = 160.0
FAIL_CLASSES = ("deadline", "recursion", "exception", "wrong_output")


class DeadlineExceeded(BaseException):
    """Raised by the CPU-time interval timer; ``cli.main`` does not catch it."""


def _alarm(signum, frame):
    raise DeadlineExceeded("op missed its deadline")


def import_program():
    """Import rankinglab from this checkout's src/, or exit with an error."""
    if not (SRC / "rankinglab" / "__init__.py").is_file():
        sys.exit(f"error: no rankinglab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankinglab
    import rankinglab.cli

    if Path(rankinglab.__file__).resolve().parent != SRC / "rankinglab":
        sys.exit(f"error: rankinglab imported from {rankinglab.__file__}, not {SRC}")
    return rankinglab


# ---------------------------------------------------------------- statistics


def tail(latencies: List[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """(value, percentile, op count) at the highest percentile with `beyond` ops above it.

    With `beyond` ops or fewer there is no such percentile; the maximum is
    reported at the 100th.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = n - 1 - beyond if n > beyond else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------- running ops


def op_callable(program, op: dict) -> Callable:
    if "argv" in op:
        argv = list(op["argv"])
        return lambda: program.cli.main(argv)
    path = ROOT / op["file"]
    if op["lib"] == "mc_expected_size":
        return lambda: program.mc_expected_size(
            program.parse_instance(path.read_text(encoding="utf-8")),
            op["samples"],
            op["mc_seed"],
        )
    return lambda: program.removal_diff_offline(
        program.parse_instance(path.read_text(encoding="utf-8")), op["vertex"]
    )


def run_op(op: dict, call: Callable, goldens: Dict[str, str]) -> dict:
    """Run one op under the deadline with stdout and stderr captured, then check it."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    status, exc, value = "pass", None, None
    t0, c0 = time.perf_counter(), time.thread_time()
    try:
        sys.stdout, sys.stderr = out, err
        signal.setitimer(signal.ITIMER_PROF, wl.DEADLINE_S)
        try:
            value = call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except DeadlineExceeded as e:
        status, exc = "deadline", e
    except RecursionError as e:
        status, exc = "recursion", e
    except Exception as e:
        status, exc = "exception", e
    finally:
        cpu = time.thread_time() - c0
        wall = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    rec = {"id": op["id"], "cpu_s": cpu, "wall_s": wall, "status": status}
    if exc is not None:
        rec["error"] = f"{type(exc).__name__}: {exc}"[:200]
        rec["layer"] = layertrace.error_layer(exc)
        return rec
    stdout = out.getvalue()
    if not wl.CHECKS[op["check"]](op, value, stdout):
        rec.update(status="wrong_output", error="output check failed", stdout=stdout[:400])
        return rec
    golden = wl.golden_of(op, value, stdout)
    rec["golden"] = golden
    want = goldens.get(str(op["id"]))
    if want is not None and want != golden:
        rec.update(status="wrong_output", error=f"golden mismatch: want {want!r}")
    return rec


_PROBE_LIST = [(i * 2654435761) % 1021 for i in range(512)]
_PROBE_DICT = dict(enumerate(_PROBE_LIST))


def _probe_loop() -> int:
    # dict and list reads and int arithmetic: interpreter work that makes no
    # container objects, so it never triggers a collection of the program's heap
    acc = 0
    d, xs = _PROBE_DICT, _PROBE_LIST
    for i in range(4500):
        acc += d[i & 511] ^ xs[(i * 31) & 511]
    return acc


def probe_seconds() -> float:
    """Thread CPU time of the fixed probe loop, the least of three runs."""
    best = float("inf")
    for _ in range(3):
        c0 = time.thread_time()
        _probe_loop()
        best = min(best, time.thread_time() - c0)
    return best


def scale_to_reference(records: List[dict], probes: List[Tuple[int, float]]) -> None:
    """Set each record's probe_s and ref_s from the probes nearest to it.

    ``probes`` holds (number of ops run before the probe, probe seconds) in
    run order, with at least one probe after the last op.
    """
    j = 0
    for i, rec in enumerate(records):
        while probes[j][0] <= i:
            j += 1  # probes[j] is the first probe after op i
        lo = max(0, min(j - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
        rec["probe_s"] = statistics.median(p for _, p in probes[lo:lo + PROBE_WINDOW])
        rec["ref_s"] = rec["cpu_s"] * PROBE_REF_S / rec["probe_s"]


def clear_caches(program) -> None:
    """Empty every functools cache in the program, so each pass starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == program.__name__ or name.startswith(program.__name__ + "."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def run_pass(program, ops: List[dict], goldens: Dict[str, str], budget_s: float,
             after_op: Callable[[], None] = lambda: None) -> List[dict]:
    """Every op in order; no new op starts once the pass has used its wall budget."""
    clear_caches(program)
    gc.freeze()  # the benchmark's own objects stay out of the program's collections
    records: List[dict] = []
    probes: List[Tuple[int, float]] = []
    start = time.perf_counter()
    last_probe = float("-inf")
    for op in ops:
        if time.perf_counter() - start > budget_s:
            break
        if time.thread_time() - last_probe >= PROBE_EVERY_S:
            probes.append((len(records), probe_seconds()))
            last_probe = time.thread_time()
        records.append(run_op(op, op_callable(program, op), goldens))
        after_op()
    probes.append((len(records), probe_seconds()))
    scale_to_reference(records, probes)
    return records


def busy_seconds(records: List[dict], clock: str = "ref_s") -> float:
    return sum(r[clock] for r in records)


def fail_counts(records: List[dict]) -> Dict[str, int]:
    counts = {c: 0 for c in FAIL_CLASSES}
    for r in records:
        if r["status"] != "pass":
            counts[r["status"]] += 1
    return counts


# ---------------------------------------------------------------- metrics


def end_to_end(records: List[dict], setup_samples: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass.

    Times are CPU times at the reference speed (``ref_s``).  Throughput
    counts passed ops over the time they took: a failed op's
    time is set by the deadline or by where it raised, not by the work it
    would have done, and failures are reported by ``op_pass_ratio``.  The
    latency percentiles take every op, a failed one at the time it used.
    """
    lat = [r["ref_s"] for r in records]
    passed = [r for r in records if r["status"] == "pass"]
    tail_s, _, _ = tail(lat)
    return {
        "ops_per_ref_s": len(passed) / busy_seconds(passed) if passed else 0.0,
        "op_ref_p50_ms": statistics.median(lat) * 1000.0,
        "op_ref_tail_ms": tail_s * 1000.0,
        "op_pass_ratio": len(passed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(base: List[dict], spans: layertrace.Spans, traced: List[dict],
              counts: layertrace.Counts) -> Dict[str, float]:
    selfs = spans.self_seconds()
    c = counts.counts
    errors = {layer: 0 for layer in layertrace.LAYERS}
    for r in base:
        if "layer" in r and r["layer"] in errors:
            errors[r["layer"]] += 1
    m = {f"{layer}.self_s": selfs[layer] for layer in layertrace.LAYERS}
    m.update({
        "cli.calls": spans.calls_into("cli"),
        "fileformat.parse_calls": c["fileformat.parse_calls"],
        "fileformat.serialize_calls": c["fileformat.serialize_calls"],
        "rng.u64_draws": c["rng.u64_draws"],
        "rng.reject_ratio": c["rng.rejections"] / max(c["rng.below_draws"], 1),
        "engine.step_calls": c["engine.step_calls"],
        "engine.online_match_calls": c["engine.online_match_calls"],
        "engine.predicate_calls": c["engine.predicate_calls"],
        "graph.max_matching_calls": c["graph.max_matching_calls"],
        "graph.augment_searches": c["graph.augment_searches"],
        "graph.neighbors_calls": c["graph.neighbors_calls"],
        "graph.partner_calls": c["graph.partner_calls"],
        "graph.errors": errors["graph"],
        "probability.exact_calls": c["probability.exact_calls"],
        "probability.mc_samples": c["probability.mc_samples"],
        "structure.zigzag_calls": c["structure.zigzag_calls"],
        "structure.shifts_to_calls": c["structure.shifts_to_calls"],
        "structure.max_path_len": counts.max_path_len,
        "structure.errors": errors["structure"],
        "suites.cases": c["suites.cases"],
        "trace.overhead_ratio": busy_seconds(traced, "cpu_s") / busy_seconds(base, "cpu_s"),
        # spans read the wall clock, so their share is of the traced wall time
        "trace.self_share": sum(selfs.values()) / busy_seconds(traced, "wall_s"),
    })
    m.update({f"fail.{k}": v for k, v in fail_counts(base).items()})
    return m


# ---------------------------------------------------------------- provenance


def provenance(args, ops: List[dict]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    kinds: Dict[str, int] = {}
    for op in ops:
        kind = op["argv"][0] if "argv" in op else op["lib"]
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": wl.DEADLINE_S,
        "clock": "thread CPU time per op; deadline by ITIMER_PROF",
        "probe_ref_s": PROBE_REF_S,
        "op_counts": {"total": len(ops), **kinds},
    }


# ---------------------------------------------------------------- entry points


def measured_seconds(args) -> float:
    """Op-list length: a traced run makes three passes over a third as many ops."""
    return args.seconds / 3 if args.trace else args.seconds


def setup_only(args) -> int:
    import_program()
    indir = Path(args.dir)
    ops = wl.make_ops(args.workload, args.seed, measured_seconds(args), indir, ROOT)
    (indir / "manifest.json").write_text(json.dumps(ops), encoding="utf-8")
    return 0


def set_up(args, indir: Path, repeats: int) -> Tuple[List[dict], List[float]]:
    """Generate the inputs `repeats` times in fresh interpreters.

    Each sample is the CPU time (user plus system) of one set-up process,
    interpreter start, ``import rankinglab`` and writing the inputs, scaled
    to the reference speed by probes taken just before and after it.
    """
    samples = []
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--setup-only", "--dir", str(indir),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]

    def children_cpu() -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    for _ in range(repeats):
        before = probe_seconds()
        c0 = children_cpu()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        cpu = children_cpu() - c0
        samples.append(cpu * PROBE_REF_S / statistics.median([before, probe_seconds()]))
    ops = json.loads((indir / "manifest.json").read_text(encoding="utf-8"))
    return ops, samples


def load_goldens(workload: str, seed: int) -> Dict[str, str]:
    if seed != wl.DEFAULT_SEED or not GOLDENS.is_file():
        return {}
    data = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return data.get("workloads", {}).get(workload, {})


def measure(args) -> int:
    started = time.perf_counter()
    program = import_program()
    signal.signal(signal.SIGPROF, _alarm)
    indir = OUT / f"inputs-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        ops, setup_samples = set_up(args, indir, SETUP_REPEATS if not args.trace else 1)
        goldens = {} if args.record_goldens else load_goldens(args.workload, args.seed)
        passes = 3 if args.trace else 1

        def budget() -> float:
            """An equal share of the time left before the run's time limit."""
            nonlocal passes
            passes -= 1
            return (started + TIME_LIMIT_S - time.perf_counter()) / (passes + 1)

        base = run_pass(program, ops, goldens, budget())
        result = {"provenance": provenance(args, ops), "ops": ops, "base": base}
        if args.trace:
            spans = layertrace.Spans()
            with spans:
                traced = run_pass(program, ops, goldens, budget(), spans.reset)
            counts = layertrace.Counts()
            with counts:
                counted = run_pass(program, ops, goldens, budget())
            metrics = per_layer(base, spans, traced, counts)
            result.update(spans=spans.table(), counts=dict(counts.counts),
                          traced=traced, counted=[r["status"] for r in counted])
        else:
            metrics = end_to_end(base, setup_samples)
            result["setup_samples_s"] = setup_samples
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"error: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")
    fails = fail_counts(base)
    attempted, failed = len(base), sum(fails.values())
    correct = fails["wrong_output"] == 0 and fails["exception"] == 0
    tail_s, tail_pct, tail_n = tail([r["ref_s"] for r in base])
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    result.update(summary=summary, fail_classes=fails,
                  op_tail={"percentile": tail_pct, "ops": tail_n, "beyond": TAIL_BEYOND},
                  skipped=len(ops) - attempted)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    if args.record_goldens:
        record_goldens(args.workload, base)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} of {len(ops)} ops attempted, {attempted - failed} passed, "
          f"{failed} failed ({', '.join(f'{k} {v}' for k, v in fails.items())})")
    prov = result["provenance"]
    print(f"python {prov['python']} on {prov['platform']}, nproc {prov['nproc']}, "
          f"cpu {prov['cpu_model']}, commit {prov['commit']}, deadline {prov['deadline_s']} s CPU")
    print(f"op_fail_ratio = {failed / attempted!r} ratio")
    for name, m in summary["metrics"].items():
        extra = f" (p{tail_pct:.1f} of {tail_n} ops)" if name == "op_ref_tail_ms" else ""
        print(f"{name} = {m['value']!r} {m['unit']}{extra}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


def record_goldens(workload: str, records: List[dict]) -> None:
    data = json.loads(GOLDENS.read_text(encoding="utf-8")) if GOLDENS.is_file() else {}
    data["seed"] = wl.DEFAULT_SEED
    data.setdefault("workloads", {})[workload] = {
        str(r["id"]): r["golden"] for r in records if r["status"] == "pass"
    }
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in wl.WORKLOADS:
        for traced in (0, 1):
            cmd = [
                sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(traced),
            ]
            print(f"== {workload}, trace {traced}", flush=True)
            done = subprocess.run(cmd, cwd=ROOT, timeout=600)
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, both modes")
    p.add_argument("--record-goldens", action="store_true",
                   help="store this run's outputs as goldens (default seed only)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    if args.record_goldens and args.seed != wl.DEFAULT_SEED:
        p.error(f"goldens are recorded at the default seed {wl.DEFAULT_SEED}")
    if args.setup_only:
        return setup_only(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
