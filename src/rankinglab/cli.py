"""Command-line harness.

Subcommands:

* ``run FILE`` prints the computed matching and its size.
* ``exact FILE`` prints one CSV row with the exact expected size and ratio;
  ``--dist`` adds a ``dist <size> <p>`` line per size, p an exact fraction.
* ``mc FILE`` prints one CSV row with a seeded Monte Carlo estimate;
  ``--dist`` adds the same lines, p the share of the samples of that size.
* ``check [FILE]`` runs a named property suite, randomized or on the file.
* ``bound`` prints the guaranteed ratio at a given size.
* ``gamma`` prints the exact worst ratio of the hard family at size n.
* ``gen`` writes generated instance files; ``gen gamma`` writes each hard-family
  graph from its slot masks, o_k with an edge ranked and i_l arriving by slot.

An instance file is read as bytes once and decoded as strict UTF-8, with
CRLF and a lone CR read as LF: the text, and every error, that
``Path.read_text`` would give.

Exit codes: 0 success, 1 a checked property failed, 2 usage or input error.
The default seed comes from the RANKINGLAB_SEED environment variable when
set, otherwise 271828; it is read and validated on every ``main`` call,
while the parser is built once per process.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from bisect import bisect_right
from functools import cache
from pathlib import Path

from .engine import BipartiteInstance, Permutation, _greedy
from .fileformat import fingerprint, parse_instance, serialize_instance
from .generators import _gamma_masks, gamma_min_ratio, gen_perfect, gen_random
from .graph import _max_matching_size
from .probability import (
    DEFAULT_CAP,
    LIMIT_RATIO,
    _distribution,
    check_theorem6,
    competitive_bound,
    competitive_bound_exact,
    mc_expected_size,
)
from .reporting import CSV_HEADER, exact_row, fmt_cell, row_line
from .suites import _ROW_SUITES, SUITES

#: the largest ``check --max-side``; each suite's worst 80 x 80 draw runs in about 0.1 s, wall
MAX_SIDE = 80


def _default_seed() -> int:
    raw = os.environ.get("RANKINGLAB_SEED", "271828")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RANKINGLAB_SEED must be an integer, got {raw!r}") from None


def _load(path: str):
    """``parse_instance(Path(path).read_text(encoding="utf-8"))``, from one bytes read."""
    text = Path(path).read_bytes().decode("utf-8")
    if "\r" in text:  # universal newlines; a search for "\r\n" alone costs more than this
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_instance(text)


def _report(rows, sizes=None, file=None) -> None:
    """The CSV header, a line per row, then a ``dist <size> <p>`` line per size in ``sizes``."""
    print(CSV_HEADER, file=file)
    for row in rows:
        print(row_line(row), file=file)
    for size, p in _distribution(sizes or {}).items():
        print(f"dist {size} {p}", file=file)


def cmd_run(args) -> int:
    inst = _load(args.file)
    ranked = inst.ranking.order
    prs = _greedy(inst.reach, len(inst.arrival))
    matched = [f"matched {u} {ranked[r]}" for u, r in zip(inst.arrival, prs) if r >= 0]
    print(*matched, f"size {len(matched)}", sep="\n")
    return 0


def cmd_exact(args) -> int:
    inst = _load(args.file)
    t0 = time.perf_counter()
    verdict = check_theorem6(inst, args.cap)
    ms = (time.perf_counter() - t0) * 1000.0
    # under --dist, the histogram the verdict's mean was read off
    _report([exact_row(fingerprint(inst), verdict, ms)], verdict.sizes if args.dist else None)
    return 0 if verdict.holds else 1


def cmd_mc(args) -> int:
    inst = _load(args.file)
    t0 = time.perf_counter()
    est = mc_expected_size(inst, args.samples, args.seed)
    n = _max_matching_size(inst.reach, len(inst.arrival))
    ms = (time.perf_counter() - t0) * 1000.0
    ratio = est.mean / n if n else None
    bound = competitive_bound(n) if n else None
    verdict = "pass" if (ratio is None or ratio >= bound) else "fail"
    tolerance = 4 * est.stddev / math.sqrt(est.samples)  # criterion 10's 4 standard errors
    if verdict == "fail" and (not tolerance or n * bound - est.mean <= tolerance):
        verdict = "inconclusive"  # within the tolerance, or no spread to estimate it from
    row = {
        "instance_id": fingerprint(inst),
        "n": n,
        "mode": "mc",
        "expected_size": est.mean,
        "ratio": ratio,
        "bound": bound,
        "verdict": verdict,
        "seed": est.seed,
        "runtime_ms": ms,
    }
    _report([row], est.sizes if args.dist else None)  # the histogram the row's mean was read off
    print(f"# stddev {fmt_cell(est.stddev)} over {est.samples} samples", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    if args.random and args.file:
        raise ValueError("give a file or --random, not both")
    for flag, value, low in (("--count", args.count, 0), ("--max-side", args.max_side, 1)):
        if value < low:
            raise ValueError(f"{flag} must be at least {low}, got {value}")
    if args.max_side > MAX_SIDE:  # a FILE too: no draw refuses it there
        raise ValueError(f"--max-side must be at most {MAX_SIDE}, got {args.max_side}")
    inst = _load(args.file) if args.file else None
    if args.out is not None and args.suite not in _ROW_SUITES:  # before a minutes-long run
        raise ValueError(f"suite {args.suite!r} produces no CSV rows")
    if args.out is not None:  # an unwritable path fails here; an existing file keeps its bytes
        open(args.out, "a", encoding="utf-8").close()
    result = SUITES[args.suite](args.count, args.seed, inst=inst, max_side=args.max_side)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            _report(result.notes["rows"], file=fh)
    print(f"suite {result.name}: {result.cases} cases, {len(result.failures)} failures")
    for key, value in sorted(result.notes.items()):
        if key != "rows":
            print(f"note {key} = {value}")
    for f in result.failures:
        print(f"FAIL: {f.description}")
        if f.instance_text:
            print("--- failing instance ---")
            sys.stdout.write(f.instance_text)
            print("--- end ---")
    return 0 if result.passed else 1


def _digits(n: int) -> int:
    """Decimal digits of (n+1)^n, the denominator of the exact bound at n."""
    return int(n * math.log10(n + 1)) + 1


def cmd_bound(args) -> int:
    if args.exact:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit and args.n > 0 and _digits(args.n) > limit:
            top = bisect_right(range(1, limit + 1), limit, key=_digits)
            raise ValueError(f"--exact prints n up to {top}, the interpreter's "
                             f"limit of {limit} digits per integer")
        print(fmt_cell(competitive_bound_exact(args.n)))
    else:
        print(fmt_cell(competitive_bound(args.n)))
    if args.limit_gap:
        print(f"limit_gap {fmt_cell(abs(competitive_bound(args.n) - LIMIT_RATIO))}")
    return 0


def cmd_gamma(args) -> int:
    print(fmt_cell(gamma_min_ratio(args.n)))
    return 0


def cmd_gen(args) -> int:
    if args.kind == "random":
        inst = gen_random(args.offline, args.online, args.edge_prob, args.seed)
        text = serialize_instance(inst)
    elif args.kind == "perfect":
        inst, planted = gen_perfect(args.n, args.extra, args.seed)
        pairs = sorted(sorted(e, key=inst.ranking.__contains__) for e in planted)
        lines = ["# planted perfect matching:"]
        lines += [f"# pair {u} {v}" for u, v in pairs]
        text = "\n".join(lines) + "\n" + serialize_instance(inst)
    else:
        family = list(_gamma_masks(args.n))  # a rejected n leaves no directory
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, (rows, active) in enumerate(family):
            ranking = Permutation(f"o{k}" for k, m in enumerate(rows) if m)
            reach = (sum(1 << p for p, l in enumerate(active) if m >> l & 1) for m in rows if m)
            arrival = Permutation(f"i{l}" for l in active)
            inst = BipartiteInstance._indexed(ranking, arrival, tuple(reach))
            (out_dir / f"g{idx:04d}.obm").write_text(
                serialize_instance(inst), encoding="utf-8"
            )
        print(f"wrote {len(family)} instances to {out_dir}")
        return 0
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rankinglab",
        description="Laboratory for the rank-greedy online bipartite matcher.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="print the matching computed on an instance file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("exact", help="exact expected size and ratio as a CSV row")
    sp.add_argument("file")
    sp.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="enumeration cap (default %(default)s)"
    )
    sp.add_argument("--dist", action="store_true", help="also print P[size] per size")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("mc", help="Monte Carlo expected size as a CSV row")
    sp.add_argument("file")
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dist", action="store_true", help="also print the sampled P[size] per size")
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("check", help="run a property suite")
    sp.add_argument("file", nargs="?", help="check this instance instead of random ones")
    sp.add_argument(
        "--random",
        action="store_true",
        help="draw random instances (the default when no file is given)",
    )
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-side", type=int, default=8)
    sp.add_argument("--out", help="write CSV rows here (ratio suites only)")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("bound", help="guaranteed ratio at size n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--exact", action="store_true", help="print an exact rational")
    sp.add_argument(
        "--limit-gap", action="store_true", help="also print the distance to 1 - 1/e"
    )
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("gamma", help="exact worst ratio of the hard family")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("gen", help="generate instance files")
    gsub = sp.add_subparsers(dest="kind", required=True)

    gp = gsub.add_parser("random", help="independent random edges")
    gp.add_argument("--offline", type=int, required=True)
    gp.add_argument("--online", type=int, required=True)
    gp.add_argument("--edge-prob", type=float, required=True)
    gp.add_argument("--seed", type=int)
    gp.add_argument("--out")
    gp.set_defaults(func=cmd_gen)

    gp = gsub.add_parser("perfect", help="planted perfect matching plus extras")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--extra", type=float, default=0.3, help="extra edge probability")
    gp.add_argument("--seed", type=int)
    gp.add_argument("--out")
    gp.set_defaults(func=cmd_gen)

    gp = gsub.add_parser("gamma", help="every hard-family graph at size n")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--out-dir", required=True)
    gp.set_defaults(func=cmd_gen)

    return p


#: the parser every ``main`` call shares, built on first use
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        seed = _default_seed()
        args = _parser().parse_args(argv)
        if hasattr(args, "seed") and args.seed is None:  # no --seed given
            args.seed = seed
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, KeyError, IndexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
