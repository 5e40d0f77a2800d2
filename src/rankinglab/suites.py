"""Randomized, replayable check suites.

Each suite draws `count` cases from a seed, verifies one structural or
probabilistic property per case, and reports failures together with the
self-contained instance file text that reproduces them.  Given an explicit
instance, most suites check it exhaustively where that makes sense (the
instance once, every matched or removable vertex, every move target) and
ignore `count`; lemma5 and lemma9 instead draw `count` probes on it, none
when it has no vertex.

A suite is a case source, a lazy generator of cases (the instance first),
and a check that returns the failure descriptions of one case; ``_run`` is
the one loop that counts the cases and attaches each failing instance's
text.  All randomness flows through one SplitMix64 master stream per run,
drawn in case order, so a (suite, count, seed) triple is fully reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .engine import BipartiteInstance, _greedy, _inverse, _matchings, _named, _ranking_holds
from .engine import _transpose, rank_match
from .fileformat import fingerprint, serialize_instance
from .generators import gen_perfect, gen_random
from .graph import _mate_map, is_alternating_path, vertices
from .probability import (
    _NO_PERFECT,
    _require_perfect,
    check_theorem4,
    check_theorem6,
    lemma3_chain,
    perfect_matching_of,
)
from .reporting import exact_row
from .rng import SplitMix64, stream
from .structure import (
    DichotomyViolation,
    GuardViolation,
    _Core,
    _rank_move,
    _removal_diff,
    _stability_guard,
    _stable,
    _zig_zag_symmetric,
)


@dataclass
class CaseFailure:
    description: str
    instance_text: str


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: List[CaseFailure]
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _run(
    name: str,
    cases: Iterable[tuple],
    check: Callable[..., List[str]],
    notes: Optional[Dict[str, object]] = None,
) -> SuiteResult:
    """Check every case; each description returned fails the case's instance."""
    failures: List[CaseFailure] = []
    total = 0
    for case in cases:
        total += 1
        failures += (CaseFailure(d, serialize_instance(case[0])) for d in check(*case))
    return SuiteResult(name, total, failures, {} if notes is None else notes)


def _cases(
    count: int,
    inst: Optional[BipartiteInstance],
    draw: Callable[[], tuple],
    given: Callable[[BipartiteInstance], tuple] = lambda one: (one,),
) -> Iterator[tuple]:
    """``given(inst)`` once when an instance is given, else ``count`` drawn cases."""
    if inst is not None:
        yield given(inst)
    else:
        for _ in range(count):
            yield draw()


def _with_perfect(one: BipartiteInstance) -> tuple:
    m_star = perfect_matching_of(one)
    if m_star is None:
        raise ValueError(_NO_PERFECT)
    return one, m_star


def _rand_instance(g: SplitMix64, max_side: int) -> BipartiteInstance:
    n_off = g.below(max_side) + 1
    n_on = g.below(max_side) + 1
    p = 0.15 + 0.75 * g.uniform()
    return gen_random(n_off, n_on, p, g.next_u64())


def _probes(
    count: int, inst: Optional[BipartiteInstance], g: SplitMix64, max_side: int
) -> Iterator[Tuple[BipartiteInstance, _Core]]:
    """``count`` probe instances and their cores: ``inst`` (none if it has no
    vertex) with one core, else fresh draws."""
    given = None if inst is None else _Core(inst)
    for _ in range(count if inst is None or inst.offline | inst.online else 0):
        core = given or _Core(_rand_instance(g, max_side))
        yield core.inst, core


def _vertex_cases(
    count: int, inst: Optional[BipartiteInstance], seed: int, max_side: int, side
) -> Iterator[Tuple[BipartiteInstance, _Core, str]]:
    """Every vertex ``side`` lists on ``inst``, else ``count`` drawn cases from
    ``seed``: an instance, redrawn while ``side`` (of its core) lists none,
    then a vertex."""
    if inst is not None:
        core = _Core(inst)
        yield from ((inst, core, x) for x in side(core))
        return
    g = stream(seed, 0)
    for _ in range(count):
        for _ in range(200):
            core = _Core(_rand_instance(g, max_side))
            if xs := side(core):
                break
        else:
            raise RuntimeError("failed to draw an instance with a nonempty matching")
        yield core.inst, core, g.choice(xs)


def _rand_planted(g: SplitMix64, max_side: int, cap: int) -> tuple:
    """A planted-perfect instance and its planted matching, at most ``cap`` a side."""
    n = g.below(min(max_side, cap)) + 1
    return gen_perfect(n, 0.6 * g.uniform(), g.next_u64())


def _cleared(masks: List[int], i: int, k: int) -> List[int]:
    """``masks`` with entry i emptied and bit k cleared from every other entry."""
    return [0 if x == i else mask & ~(1 << k) for x, mask in enumerate(masks)]


def suite_ranking_matching(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 5
) -> SuiteResult:
    """The computed matching is the unique declaratively characterized one.

    Checks the output satisfies the characterization, that the verdict is
    stable under swapping the party roles, that deleting a matched pair's
    endpoints leaves a valid output on the reduced graph, and (for parties
    of at most five) that no other matching of the graph satisfies the
    characterization.  All of it runs on the index and partner arrays, the
    arrivals choosing; names are made only for a failure's text.
    """
    g = stream(seed, 0)

    def check(one: BipartiteInstance) -> List[str]:
        rows, arrivals = one.reach, len(one.arrival)
        prs, cols = _greedy(rows, range(len(rows)), arrivals), _transpose(rows, arrivals)
        if not _ranking_holds(prs, cols, rows):
            return ["output fails the declarative characterization"]
        broken = [  # each matched pair's ends deleted: bits cleared, the pair unset
            (j, r) for j, r in enumerate(prs) if r >= 0 and not _ranking_holds(
                [*prs[:j], -1, *prs[j + 1:]], _cleared(cols, j, r), _cleared(rows, r, j)
            )
        ]
        if broken:  # the first by name, the order the pairs are listed in
            e = min(sorted((one.arrival[j], one.ranking[r])) for j, r in broken)
            return [
                f"removing the matched pair {e} breaks the "
                "characterization of the remaining matching"
            ]
        if len(rows) <= 5 and arrivals <= 5:
            hits = []
            for mm in _matchings(cols):
                a = _ranking_holds(mm, cols, rows)
                if a != _ranking_holds(_inverse(mm, len(rows)), rows, cols):
                    return ["party swap changed a verdict"]
                if a:
                    hits.append(mm)
            if len(hits) != 1:
                return [
                    f"{len(hits)} matchings satisfy the characterization, "
                    "expected exactly one"
                ]
            if _named(one, hits[0]) != rank_match(one):
                return ["the unique satisfying matching is not the computed one"]
        return []

    cases = _cases(count, inst, lambda: (_rand_instance(g, max_side),))
    return _run("ranking-matching", cases, check)


def suite_lemma3(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Every link of the per-rank chain holds exactly on planted instances."""
    g = stream(seed, 0)

    def check(one: BipartiteInstance, m_star: None) -> List[str]:
        broken = [link.t for link in lemma3_chain(one, m_star) if not link.holds]
        return [f"chain link broken at t={broken[0]}"] if broken else []

    # no case designates M*; a given file's perfectness is decided before the
    # chain's cap check, a drawn one's inside the chain
    cases = _cases(
        count, inst, lambda: (_rand_planted(g, max_side, 6)[0], None),
        lambda one: (one, _require_perfect(one)),
    )
    return _run("lemma3", cases, check)


def suite_lemma5(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting guard-respecting vertices leaves the probe's cascade alone."""
    g = stream(seed, 0)

    def cases():
        for one, core in _probes(count, inst, g, max_side):
            from_arrival = g.below(2) == 0
            party = sorted(one.online if from_arrival else one.offline)
            probe = g.choice(sorted(one.offline | one.online))
            breach = _stability_guard(core, not from_arrival, probe)[-1]
            xs = frozenset(x for x in party if not breach(x) and g.below(2) == 0)
            yield one, core, xs, probe

    def check(one: BipartiteInstance, core: _Core, xs: frozenset, probe: str) -> List[str]:
        try:
            if _stable(core, xs, probe):
                return []
        except GuardViolation as e:
            return [f"sampler produced a guard breach: {e}"]
        return [f"cascade from {probe!r} changed after deleting {sorted(xs)}"]

    return _run("lemma5", cases(), check)


def suite_lemma6(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Reduced-graph zig equals original-graph zag at every matched vertex."""

    def check(one: BipartiteInstance, core: _Core, x: str) -> List[str]:
        if _zig_zag_symmetric(core, x):
            return []
        return [f"zig and zag disagree after deleting {x!r}"]

    cases = _vertex_cases(
        count, inst, seed, max_side, lambda c: sorted(vertices(c.matching))
    )
    return _run("lemma6", cases, check)


def _removal_failures(
    one: BipartiteInstance, core: _Core, x: str, paths: bool = True
) -> List[str]:
    """Deleting x: the size drops by 0 or 1, and (``paths``) along a cascade."""
    try:
        diff = _removal_diff(core, x)
    except DichotomyViolation as e:
        return [str(e)]
    drop = len(diff.baseline) - len(diff.reduced)
    if drop not in (0, 1):
        return [f"deleting {x!r} changed the size by {drop}"]
    p = diff.path
    if not paths or p is None:
        return []
    if p[0] != x:
        return [f"cascade does not start at {x!r}"]
    if len(set(p)) != len(p):
        return [f"cascade from {x!r} revisits a vertex"]
    if not all(is_alternating_path(p, m) for m in (diff.baseline, diff.reduced)):
        return [f"cascade from {x!r} does not alternate against both matchings"]
    covered = vertices(diff.baseline)
    if any(v not in covered for v in p[:-1]):
        return [f"cascade from {x!r} has an uncovered interior vertex"]
    return []


def suite_lemma7(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one arriving vertex changes the output by one cascade path."""
    cases = _vertex_cases(count, inst, seed, max_side, lambda c: c.inst.arrival.order)
    return _run("lemma7", cases, _removal_failures)


def suite_lemma8(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one ranked vertex changes the output by one cascade path."""
    cases = _vertex_cases(count, inst, seed, max_side, lambda c: c.inst.ranking.order)
    return _run("lemma8", cases, _removal_failures)


def suite_lemma9(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one vertex never shrinks the output by more than one edge."""
    g = stream(seed, 0)

    def cases():
        # sides alternate, arrival side first; an empty side yields to the other
        for k, (one, core) in enumerate(_probes(count, inst, g, max_side)):
            sides = (one.arrival.order, one.ranking.order)
            yield one, core, g.choice(sides[k % 2] or sides[1 - k % 2])

    return _run("lemma9", cases(), partial(_removal_failures, paths=False))


def suite_rank_move(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 5
) -> SuiteResult:
    """Moving an unmatched ranked vertex never unseats its designated partner.

    Exhausts every (unmatched vertex, target index) pair per instance.  The
    notes tally, for each of the two rank readings, how many pairs satisfied
    it; the suite fails if some designated partner came out unmatched, if a
    pair satisfied neither reading, or if neither reading held universally.
    """
    g = stream(seed, 0)
    notes = {"pairs": 0, "moved_rank_holds": 0, "original_rank_holds": 0}

    def check(one: BipartiteInstance, m_star: frozenset) -> List[str]:
        problems = []
        covered, mate = vertices(rank_match(one)), _mate_map(m_star)
        for bar, v in enumerate(one.ranking):
            if v in covered:
                continue
            j = one.arrival.index(mate[v])
            for i in range(len(one.ranking)):
                verdict = _rank_move(one.reach, len(one.arrival), bar, j, i)
                notes["pairs"] += 1
                if not verdict.partner_matched:
                    problems.append(
                        f"designated partner of {v!r} unmatched after move to {i}"
                    )
                    continue
                notes["moved_rank_holds"] += verdict.holds_moved_rank
                notes["original_rank_holds"] += verdict.holds_original_rank
                if not (verdict.holds_moved_rank or verdict.holds_original_rank):
                    problems.append(f"no rank reading holds for {v!r} moved to {i}")
        return problems

    cases = _cases(count, inst, lambda: _rand_planted(g, max_side, 5), _with_perfect)
    result = _run("rank-move", cases, check, notes)
    pairs, moved_ok, original_ok = notes.values()
    if pairs and not (moved_ok == pairs or original_ok == pairs):
        result.failures.append(
            CaseFailure(
                f"neither rank reading held on all {pairs} pairs "
                f"(moved {moved_ok}, original {original_ok})",
                "",
            )
        )
    return result


def _suite_ratio(name: str, checker: Callable, cases: Iterable[tuple]) -> SuiteResult:
    rows: List[dict] = []

    def check(one: BipartiteInstance, *_) -> List[str]:
        t0 = time.perf_counter()
        verdict = checker(one)
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(exact_row(fingerprint(one), verdict, ms))
        return [] if verdict.holds else ["expected ratio fell below the bound"]

    return _run(name, cases, check, {"rows": rows})


def suite_theorem4(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Expected ratio meets the bound on instances with a planted perfect matching."""
    g = stream(seed, 0)
    cases = _cases(count, inst, lambda: _rand_planted(g, max_side, 6))
    return _suite_ratio("theorem4", check_theorem4, cases)


def suite_theorem6(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Expected ratio meets the bound with n the maximum matching size."""
    g = stream(seed, 0)
    cases = _cases(count, inst, lambda: (_rand_instance(g, min(max_side, 6)),))
    return _suite_ratio("theorem6", check_theorem6, cases)


#: the suites whose notes hold CSV ``rows``, the ones ``check --out`` writes
_ROW_SUITES = {"theorem4": suite_theorem4, "theorem6": suite_theorem6}

SUITES: Dict[str, Callable] = {
    "ranking-matching": suite_ranking_matching,
    "lemma3": suite_lemma3,
    "lemma5": suite_lemma5,
    "lemma6": suite_lemma6,
    "lemma7": suite_lemma7,
    "lemma8": suite_lemma8,
    "lemma9": suite_lemma9,
    "rank-move": suite_rank_move,
    **_ROW_SUITES,
}
