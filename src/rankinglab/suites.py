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
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from .engine import BipartiteInstance, is_ranking_matching, rank_match
from .fileformat import fingerprint, serialize_instance
from .generators import gen_perfect, gen_random
from .graph import all_matchings, is_alternating_path, remove_vertices, vertices
from .probability import (
    _require_perfect_matching,
    check_theorem4,
    check_theorem6,
    lemma3_chain,
)
from .reporting import exact_row
from .rng import SplitMix64, stream
from .structure import (
    DichotomyViolation,
    GuardViolation,
    _rank_move,
    _stability_guard,
    check_removal_stability,
    check_zig_zag_symmetry,
    removal_diff_offline,
    removal_diff_online,
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


def _master(seed: int) -> SplitMix64:
    return stream(seed, 0)


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
    return one, _require_perfect_matching(one)


def _rand_instance(g: SplitMix64, max_side: int) -> BipartiteInstance:
    n_off = g.below(max_side) + 1
    n_on = g.below(max_side) + 1
    p = 0.15 + 0.75 * g.uniform()
    return gen_random(n_off, n_on, p, g.next_u64())


def _rand_planted(g: SplitMix64, max_side: int, cap: int) -> tuple:
    """A planted-perfect instance and its planted matching, at most ``cap`` a side."""
    n = g.below(min(max_side, cap)) + 1
    return gen_perfect(n, 0.6 * g.uniform(), g.next_u64())


def suite_ranking_matching(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 5
) -> SuiteResult:
    """The computed matching is the unique declaratively characterized one.

    Checks the output satisfies the characterization, that the verdict is
    stable under swapping the party roles, that deleting a matched pair's
    endpoints leaves a valid output on the reduced graph, and (for parties
    of at most five) that no other matching of the graph satisfies the
    characterization.
    """
    g = _master(seed)

    def check(one: BipartiteInstance) -> List[str]:
        gr, arr, rank = one.graph, one.arrival, one.ranking
        m = rank_match(one)
        if not is_ranking_matching(gr, m, arr, rank):
            return ["output fails the declarative characterization"]
        for e in sorted(m, key=sorted):
            if not is_ranking_matching(remove_vertices(gr, e), m - {e}, arr, rank):
                return [
                    f"removing the matched pair {sorted(e)} breaks the "
                    "characterization of the remaining matching"
                ]
        if len(rank) <= 5 and len(arr) <= 5:
            hits = []
            for mm in all_matchings(gr):
                a = is_ranking_matching(gr, mm, arr, rank)
                b = is_ranking_matching(gr, mm, rank, arr)
                if a != b:
                    return ["party swap changed a verdict"]
                if a:
                    hits.append(mm)
            if len(hits) != 1:
                return [
                    f"{len(hits)} matchings satisfy the characterization, "
                    "expected exactly one"
                ]
            if hits[0] != m:
                return ["the unique satisfying matching is not the computed one"]
        return []

    cases = _cases(count, inst, lambda: (_rand_instance(g, max_side),))
    return _run("ranking-matching", cases, check)


def suite_lemma3(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Every link of the per-rank chain holds exactly on planted instances."""
    g = _master(seed)

    def check(one: BipartiteInstance, m_star: frozenset) -> List[str]:
        broken = [link.t for link in lemma3_chain(one, m_star) if not link.holds]
        return [f"chain link broken at t={broken[0]}"] if broken else []

    cases = _cases(count, inst, lambda: _rand_planted(g, max_side, 6), _with_perfect)
    return _run("lemma3", cases, check)


def suite_lemma5(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting guard-respecting vertices leaves the probe's cascade alone."""
    g = _master(seed)

    def cases():
        for _ in range(count if inst is None or inst.offline | inst.online else 0):
            one = inst if inst is not None else _rand_instance(g, max_side)
            from_arrival = g.below(2) == 0
            party = sorted(one.online if from_arrival else one.offline)
            probe = g.choice(sorted(one.offline | one.online))
            _, _, breach = _stability_guard(one, not from_arrival, probe)
            xs = frozenset(x for x in party if not breach(x) and g.below(2) == 0)
            yield one, xs, probe

    def check(one: BipartiteInstance, xs: frozenset, probe: str) -> List[str]:
        try:
            if check_removal_stability(one, xs, probe):
                return []
        except GuardViolation as e:
            return [f"sampler produced a guard breach: {e}"]
        return [f"cascade from {probe!r} changed after deleting {sorted(xs)}"]

    return _run("lemma5", cases(), check)


def suite_lemma6(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Reduced-graph zig equals original-graph zag at every matched vertex."""
    g = _master(seed)

    def cases():
        if inst is not None:
            yield from ((inst, x) for x in sorted(vertices(rank_match(inst))))
            return
        for _ in range(count):
            for _ in range(200):  # redraw until the matching is nonempty
                one = _rand_instance(g, max_side)
                m = rank_match(one)
                if m:
                    break
            else:
                raise RuntimeError("failed to draw an instance with a nonempty matching")
            yield one, g.choice(sorted(vertices(m)))

    def check(one: BipartiteInstance, x: str) -> List[str]:
        if check_zig_zag_symmetry(one, x):
            return []
        return [f"zig and zag disagree after deleting {x!r}"]

    return _run("lemma6", cases(), check)


def _side(one: BipartiteInstance, online_side: bool) -> tuple:
    return one.arrival.order if online_side else one.ranking.order


def _removal_failures(one: BipartiteInstance, x: str, paths: bool = True) -> List[str]:
    """Deleting x: the size drops by 0 or 1, and (``paths``) along a cascade."""
    try:
        diff = (removal_diff_online if x in one.arrival else removal_diff_offline)(one, x)
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
    if not all(is_alternating_path(p, m) for m in (diff.baseline, diff.reduced)):
        return [f"cascade from {x!r} does not alternate against both matchings"]
    covered = vertices(diff.baseline)
    if any(v not in covered for v in p[:-1]):
        return [f"cascade from {x!r} has an uncovered interior vertex"]
    return []


def _suite_removal(
    name: str,
    online_side: bool,
    count: int,
    seed: int,
    inst: Optional[BipartiteInstance],
    max_side: int,
) -> SuiteResult:
    g = _master(seed)

    def cases():
        if inst is not None:
            yield from ((inst, x) for x in _side(inst, online_side))
            return
        for _ in range(count):  # per case: instance first, then the vertex
            one = _rand_instance(g, max_side)
            yield one, g.choice(_side(one, online_side))

    return _run(name, cases(), _removal_failures)


def suite_lemma7(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one arriving vertex changes the output by one cascade path."""
    return _suite_removal("lemma7", True, count, seed, inst, max_side)


def suite_lemma8(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one ranked vertex changes the output by one cascade path."""
    return _suite_removal("lemma8", False, count, seed, inst, max_side)


def suite_lemma9(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one vertex never shrinks the output by more than one edge."""
    g = _master(seed)

    def cases():
        # sides alternate, arrival side first; an empty side yields to the other
        for k in range(count if inst is None or inst.offline | inst.online else 0):
            one = inst if inst is not None else _rand_instance(g, max_side)
            yield one, g.choice(_side(one, k % 2 == 0) or _side(one, k % 2 != 0))

    def check(one: BipartiteInstance, x: str) -> List[str]:
        return _removal_failures(one, x, paths=False)

    return _run("lemma9", cases(), check)


def suite_rank_move(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 5
) -> SuiteResult:
    """Moving an unmatched ranked vertex never unseats its designated partner.

    Exhausts every (unmatched vertex, target index) pair per instance.  The
    notes tally, for each of the two rank readings, how many pairs satisfied
    it; the suite fails if some designated partner came out unmatched, if a
    pair satisfied neither reading, or if neither reading held universally.
    """
    g = _master(seed)
    notes = {"pairs": 0, "moved_rank_holds": 0, "original_rank_holds": 0}

    def check(one: BipartiteInstance, m_star: frozenset) -> List[str]:
        problems = []
        baseline = rank_match(one)
        covered = vertices(baseline)
        for v in one.ranking:
            if v in covered:
                continue
            for i in range(len(one.ranking)):
                verdict = _rank_move(one, m_star, baseline, v, i)
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
    g = _master(seed)
    cases = _cases(count, inst, lambda: _rand_planted(g, max_side, 6))
    return _suite_ratio("theorem4", check_theorem4, cases)


def suite_theorem6(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Expected ratio meets the bound with n the maximum matching size."""
    g = _master(seed)
    cases = _cases(count, inst, lambda: (_rand_instance(g, min(max_side, 6)),))
    return _suite_ratio("theorem6", check_theorem6, cases)


SUITES: Dict[str, Callable] = {
    "ranking-matching": suite_ranking_matching,
    "lemma3": suite_lemma3,
    "lemma5": suite_lemma5,
    "lemma6": suite_lemma6,
    "lemma7": suite_lemma7,
    "lemma8": suite_lemma8,
    "lemma9": suite_lemma9,
    "rank-move": suite_rank_move,
    "theorem4": suite_theorem4,
    "theorem6": suite_theorem6,
}
