"""The four workloads: seeded op lists and the output check of every op.

An op is a JSON-able dict.  ``argv`` ops run ``rankinglab.cli.main(argv)``
in-process; ``lib`` ops call one library function on a parsed file.  Op k
of a workload draws its instance from ``random.Random(f"{workload}/{seed}/{k}")``,
so op lists are prefix-stable: a longer run starts with the ops of a
shorter one.  Sizes and densities cycle through fixed strata by op index
and only the edges, orders, program seeds and staircase sizes within a
narrow slice come from the seed, which keeps the mix of work the same from
seed to seed.
"""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import gen

#: per-op deadline in CPU seconds, enforced by an in-process CPU-time
#: interval timer (``ITIMER_PROF``)
DEADLINE_S = 2.0
#: seed at which recorded goldens are checked as well as invariants
DEFAULT_SEED = 1
#: ops per second of ``--seconds``, so that a run on a 2-vCPU Xeon VM
#: measures a little less than that; the op list depends only on the seed
#: and this.  At 25 s each rate gives whole cycles of its workload's mix:
#: mc 9 x 13 party sizes, exact 1 + 7 x 32, check 30 x 168, scale 6 x 12.
RATE = {"mc": 4.68, "exact": 9.0, "check": 201.6, "scale": 2.88}

CSV_HEADER = "instance_id,n,mode,expected_size,ratio,bound,verdict,seed,runtime_ms"
CHECK_SUITES = (
    "ranking-matching",
    "lemma5",
    "lemma6",
    "lemma7",
    "lemma8",
    "lemma9",
    "rank-move",
)
# cascade sizes (staircase n, path 2n) keep clear of the recursion ceiling
# near n = 495, so instrumented passes fail on exactly the same ops
CASCADE_STRATA = ((230, 271), (380, 421), (540, 581))
STAIR_SIZES = (90, 119)
# staircase sizes come from the seed only within the k-th of this many equal
# slices of their range, k cycling with the op's cycle, so a run's sizes
# (and the cost of the steep staircase ops) do not move from seed to seed
SIZE_SLICES = 6
# edge densities cycled by op index (random instances use each plus 0.1)
DENSITIES = (0.2, 0.3, 0.4, 0.5)


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(RATE[workload] * seconds))


class _Writer:
    """Writes instance files and builds op dicts that point at them."""

    def __init__(self, workload: str, seed: int, indir: Path, root: Path):
        self.workload, self.seed, self.indir, self.root = workload, seed, indir, root
        self.used: set = set()

    def rnd(self, k: int) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{k}")

    def op(self, k: int, inst: gen.Instance, check: str, params: dict, **extra) -> dict:
        text = inst.text()
        path = self.indir / f"op{k:05d}.obm"
        path.write_text(text, encoding="utf-8")
        return {
            "id": k,
            "check": check,
            "file": path.relative_to(self.root).as_posix(),
            "fingerprint": gen.fingerprint(text),
            "planted": inst.planted,
            "params": params,
            **extra,
        }

    def distinct(self, lo: int, hi: int, rnd: random.Random, cycle: int) -> int:
        """A staircase size in [lo, hi] not used by an earlier op of this run.

        It is drawn from the slice of the range that the cycle selects.
        """
        width = (hi - lo + 1) // SIZE_SLICES
        n = lo + (cycle % SIZE_SLICES) * width + rnd.randrange(width)
        while n in self.used:
            n = lo + (n - lo + 1) % (hi - lo + 1)
        self.used.add(n)
        return n


def _mc_op(w: _Writer, k: int) -> dict:
    rnd = w.rnd(k)
    n = 12 + (5 * k) % 13
    extra = (0.2, 0.25, 0.3, 0.35, 0.4)[k % 5]
    inst = gen.planted_perfect(rnd, n, extra)
    seed = rnd.randrange(2**31)
    op = w.op(k, inst, "mc", {"family": "planted", "n": n, "extra": extra})
    op["argv"] = ["mc", op["file"], "--samples", "5000", "--seed", str(seed)]
    op["mc_seed"] = seed
    return op


def _exact_op(w: _Writer, k: int) -> dict:
    if k == 0:  # gamma takes no seed, so it runs once per pass
        return {"id": 0, "check": "gamma", "argv": ["gamma", "--n", "2"], "params": {}}
    rnd = w.rnd(k)
    cycle, slot = divmod(k - 1, 8)
    kind, n = (
        ("exact-planted", 6),
        ("exact-random", 6),
        ("lemma3", 5),
        ("exact-planted", 7),
        ("exact-random", 7),
        ("lemma3", 6),
        (("exact-planted", "exact-random")[cycle // 4 % 2], 8 if cycle % 4 == 0 else 7),
        ("lemma3", 7),
    )[slot]
    density = DENSITIES[cycle % len(DENSITIES)]
    if kind == "exact-random":
        p = round(density + 0.1, 2)
        inst = gen.random_bipartite(rnd, n, n, p)
        params = {"family": "random", "n": n, "p": p}
    else:
        extra = density
        inst = gen.planted_perfect(rnd, n, extra)
        params = {"family": "planted", "n": n, "extra": extra}
    if kind == "lemma3":
        op = w.op(k, inst, "suite", params, suite="lemma3")
        op["argv"] = ["check", op["file"], "--suite", "lemma3"]
    else:
        op = w.op(k, inst, "exact", params)
        op["argv"] = ["exact", op["file"]]
    return op


def _check_op(w: _Writer, k: int) -> dict:
    rnd = w.rnd(k)
    row, col = divmod(k, len(CHECK_SUITES))
    suite = CHECK_SUITES[col]
    side = 3 + row % 6
    density = DENSITIES[row // 6 % len(DENSITIES)]
    if suite == "rank-move":
        extra = density
        inst = gen.planted_perfect(rnd, side, extra)
        params = {"family": "planted", "n": side, "extra": extra}
    else:
        online = 3 + (side + 2) % 6
        p = round(density + 0.1, 2)
        inst = gen.random_bipartite(rnd, side, online, p)
        params = {"family": "random", "offline": side, "online": online, "p": p}
    op = w.op(k, inst, "suite", params, suite=suite)
    # lemma5 and lemma9 repeat --count cases on a given file; 20 keeps every
    # check op at a few milliseconds, where per-call overhead shows
    op["argv"] = [
        "check", op["file"], "--suite", suite,
        "--count", "20", "--seed", str(rnd.randrange(2**31)),
    ]
    return op


def _greedy_text(inst: gen.Instance) -> str:
    """Expected ``run`` output, from the benchmark's own greedy."""
    rpos = {v: i for i, v in enumerate(inst.ranking)}
    nbrs: Dict[str, List[str]] = {}
    for u, v in inst.edges:
        nbrs.setdefault(u, []).append(v)
    taken: set = set()
    lines = []
    for u in inst.arrival:
        free = [v for v in nbrs.get(u, ()) if v not in taken]
        if free:
            v = min(free, key=rpos.__getitem__)
            taken.add(v)
            lines.append(f"matched {u} {v}\n")
    lines.append(f"size {len(taken)}\n")
    return "".join(lines)


# one scale cycle; a cascade's parameter indexes CASCADE_STRATA, a libmc's
# gives the side in even and odd cycles
SCALE_CYCLE = (
    ("run", 0.02), ("cascade", 0), ("run", 0.05), ("cascade", 2),
    ("libmc", (200, 300)), ("run", 0.1), ("cascade", 0), ("stair", None),
    ("cascade", 1), ("libmc", (400, 400)), ("run", 0.05), ("sparse", None),
)


def _scale_op(w: _Writer, k: int) -> dict:
    rnd = w.rnd(k)
    cycle, slot = divmod(k, len(SCALE_CYCLE))
    kind, param = SCALE_CYCLE[slot]
    if kind == "run":
        inst = gen.random_bipartite(rnd, 400, 400, param)
        op = w.op(k, inst, "run", {"family": "random", "side": 400, "p": param})
        op["argv"] = ["run", op["file"]]
        op["expect_sha256"] = hashlib.sha256(_greedy_text(inst).encode()).hexdigest()
        return op
    if kind == "cascade":
        n = w.distinct(*CASCADE_STRATA[param], rnd, cycle)
        op = w.op(k, gen.staircase(n), "cascade", {"family": "staircase", "n": n})
        op.update(lib="removal_diff_offline", vertex="v1")
        return op
    if kind == "libmc":
        side = param[cycle % 2]
        inst = gen.random_bipartite(rnd, side, side, 0.05)
        op = w.op(k, inst, "libmc", {"family": "random", "side": side, "p": 0.05})
        op.update(lib="mc_expected_size", samples=200, mc_seed=rnd.randrange(2**31))
        return op
    if kind == "stair":
        n = w.distinct(*STAIR_SIZES, rnd, cycle)
        op = w.op(k, gen.staircase(n), "mc", {"family": "staircase", "n": n})
    else:
        # at 150 per side the exhaustive matching misses the deadline on every
        # seed (at 40-80 only on some), so the failure count is seed-independent
        inst = gen.random_bipartite(rnd, 150, 150, 0.1)
        op = w.op(k, inst, "mc", {"family": "random", "side": 150, "p": 0.1})
    seed = rnd.randrange(2**31)
    op["argv"] = ["mc", op["file"], "--samples", "200", "--seed", str(seed)]
    op["mc_seed"] = seed
    return op


_MAKERS = {"mc": _mc_op, "exact": _exact_op, "check": _check_op, "scale": _scale_op}
WORKLOADS = tuple(_MAKERS)


def make_ops(workload: str, seed: int, seconds: float, indir: Path, root: Path) -> List[dict]:
    """Generate the op list and write its instance files under indir."""
    indir.mkdir(parents=True, exist_ok=True)
    w = _Writer(workload, seed, indir, root)
    return [_MAKERS[workload](w, k) for k in range(op_count(workload, seconds))]


# ---------------------------------------------------------------- checks


def _csv_row(op: dict, stdout: str, mode: str) -> Optional[List[str]]:
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != CSV_HEADER:
        return None
    cells = lines[1].split(",")
    if len(cells) != 9 or cells[0] != op["fingerprint"] or cells[2] != mode:
        return None
    if cells[6] != "pass":
        return None
    if op.get("planted") and cells[1] != str(op["planted"]):
        return None
    return cells


def _check_mc(op, rc, stdout) -> bool:
    cells = _csv_row(op, stdout, "mc") if rc == 0 else None
    if cells is None or cells[7] != str(op["mc_seed"]):
        return False
    n, mean = int(cells[1]), float(cells[3])
    return 0.0 <= mean <= n


def _check_exact(op, rc, stdout) -> bool:
    cells = _csv_row(op, stdout, "exact") if rc == 0 else None
    if cells is None:
        return False
    n, expected = int(cells[1]), Fraction(cells[3])
    if n == 0:
        return expected == 0 and cells[4] == cells[5] == ""
    return (
        0 <= expected <= n
        and Fraction(cells[4]) == expected / n
        and Fraction(cells[5]) == 1 - Fraction(n, n + 1) ** n
    )


_SUITE_LINE = re.compile(r"suite (\S+): (\d+) cases, 0 failures")


def _check_suite(op, rc, stdout) -> bool:
    first = stdout.split("\n", 1)[0]
    m = _SUITE_LINE.fullmatch(first)
    return rc == 0 and m is not None and m.group(1) == op["suite"]


def _check_gamma(op, rc, stdout) -> bool:
    return rc == 0 and stdout == "3/4\n"


def _check_run(op, rc, stdout) -> bool:
    return rc == 0 and hashlib.sha256(stdout.encode()).hexdigest() == op["expect_sha256"]


def _check_libmc(op, value, stdout) -> bool:
    return (
        value.samples == op["samples"]
        and value.seed == op["mc_seed"]
        and 0.0 <= value.mean <= op["params"]["side"]
        and value.stddev >= 0.0
    )


def _check_cascade(op, value, stdout) -> bool:
    n = op["params"]["n"]
    path = tuple(x for i in range(1, n + 1) for x in (f"v{i}", f"u{i}"))
    return (
        value.path == path
        and len(value.baseline) == n
        and len(value.reduced) == n - 1
    )


CHECKS: Dict[str, Callable] = {
    "mc": _check_mc,
    "exact": _check_exact,
    "suite": _check_suite,
    "gamma": _check_gamma,
    "run": _check_run,
    "libmc": _check_libmc,
    "cascade": _check_cascade,
}


def golden_of(op: dict, value, stdout: str) -> str:
    """The part of an op's output that must stay byte-identical across commits."""
    check = op["check"]
    if check in ("mc", "exact"):
        return stdout.splitlines()[1].rsplit(",", 1)[0]  # the row without runtime_ms
    if check == "suite":
        return stdout.split("\n", 1)[0]
    if check == "run":
        return stdout.splitlines()[-1] + " sha256:" + op["expect_sha256"][:16]
    if check == "libmc":
        return f"{value.mean!r} {value.stddev!r}"
    if check == "cascade":
        return f"path {len(value.path)} baseline {len(value.baseline)}"
    return stdout.strip()
