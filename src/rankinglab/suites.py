"""Randomized, replayable check suites.

Each suite draws `count` cases from a seed, verifies one structural or
probabilistic property per case, and reports failures together with the
self-contained instance file text that reproduces them.  Given an explicit
instance, most suites check it exhaustively where that makes sense (the
instance once, every matched or removable vertex, every move target) and
ignore `count`; lemma5 and lemma9 instead draw `count` probes on it, none
when it has no vertex.  lemma9 keeps one verdict per vertex of a given
instance, so a probe that repeats a vertex counts and reports as a case of
its own but is not checked again.

A suite is a case source, ``_cases``: a given instance's list of cases or a
lazy generator of drawn ones (each case the instance first), and a check
that returns the failure descriptions of one case; ``_run`` is the one loop
that counts the cases and attaches each failing instance's text, serialized
once per failing case and not at all for a passing one.
The structural suites check on positions, one ``structure._frames`` pair per
instance, and name a vertex only in a failure's text.  Rank-move's M* is an
arrival position per ranked id: ``graph._star`` of a drawn case's planted
pairs, or a given file's ``_designated`` once ``_require_perfect`` passes.
All randomness flows through one SplitMix64 master stream per run, drawn
in case order, so a (suite, count, seed) triple is fully reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from .engine import BipartiteInstance, _greedy, _inverse, _matchings, _ranking_holds, _transpose
from .fileformat import fingerprint, serialize_instance
from .generators import gen_perfect, gen_random
from .graph import _designated, _require_perfect, _star
from .probability import DEFAULT_CAP, _chain, _check_cap, check_theorem4, check_theorem6
from .reporting import exact_row
from .rng import SplitMix64, stream
from .structure import (
    DichotomyViolation,
    GuardViolation,
    _cascade,
    _frames,
    _rank_move,
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
        if found := check(*case):  # a passing case builds nothing
            text = serialize_instance(case[0])
            failures += [CaseFailure(d, text) for d in found]
    return SuiteResult(name, total, failures, {} if notes is None else notes)


def _cases(
    count: int,
    inst: Optional[BipartiteInstance],
    draw: Callable[[], tuple],
    given: Callable[[BipartiteInstance], List[tuple]] = lambda one: [(one,)],
) -> Iterable[tuple]:
    """``given(inst)``, the given instance's cases, else ``count`` lazy calls of ``draw``."""
    return given(inst) if inst is not None else (draw() for _ in range(count))


def _rand_instance(g: SplitMix64, max_side: int) -> BipartiteInstance:
    n_off = g.below(max_side) + 1
    n_on = g.below(max_side) + 1
    p = 0.15 + 0.75 * g.uniform()
    return gen_random(n_off, n_on, p, g.next_u64())


_prepared = lambda one: (one, _frames(one.reach, len(one.arrival)))  # noqa: E731


def _by_name(one: BipartiteInstance) -> list:
    """Every vertex as (name, offline, position), in name order."""
    parties = ((True, one.ranking), (False, one.arrival))
    return sorted((x, o, p) for o, party in parties for p, x in enumerate(party))


def _probes(
    count: int, inst: Optional[BipartiteInstance], g: SplitMix64, max_side: int
) -> Iterable[tuple]:
    """``count`` probe instances with their cores: ``inst``'s one shared core
    (none if it has no vertex), else fresh draws."""
    given = lambda one: [_prepared(one)] * (count if one.offline | one.online else 0)  # noqa: E731
    return _cases(count, inst, lambda: _prepared(_rand_instance(g, max_side)), given)


def _vertex_cases(
    count: int, inst: Optional[BipartiteInstance], seed: int, max_side: int, side
) -> Iterable[tuple]:
    """Every vertex ``side`` lists on ``inst``, else ``count`` drawn cases from
    ``seed``: an instance, redrawn while ``side`` lists none, then a vertex.
    ``side`` takes the instance and its core; a vertex is (name, offline, position)."""
    g = stream(seed, 0)

    def draw() -> tuple:
        for _ in range(200):
            made = _prepared(_rand_instance(g, max_side))
            if xs := side(*made):
                return (*made, *g.choice(xs))
        raise RuntimeError("failed to draw an instance with a nonempty matching")

    def given(one: BipartiteInstance) -> List[tuple]:
        made = _prepared(one)
        return [(*made, *v) for v in side(*made)]

    return _cases(count, inst, draw, given)


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
        prs, cols = _greedy(rows, arrivals), _transpose(rows, arrivals)
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
            if hits[0] != tuple(prs):
                return ["the unique satisfying matching is not the computed one"]
        return []

    cases = _cases(count, inst, lambda: (_rand_instance(g, max_side),))
    return _run("ranking-matching", cases, check)


def suite_lemma3(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Every link of the per-rank chain holds exactly on planted instances."""
    g = stream(seed, 0)

    def check(one: BipartiteInstance) -> List[str]:
        _require_perfect(one)  # no case designates M*; perfectness comes before the cap
        _check_cap(one, DEFAULT_CAP)
        broken = [link.t for link in _chain(one.reach, len(one.arrival)) if not link.holds]
        return [f"chain link broken at t={broken[0]}"] if broken else []

    cases = _cases(count, inst, lambda: _rand_planted(g, max_side, 6)[:1])
    return _run("lemma3", cases, check)


def suite_lemma5(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting guard-respecting vertices leaves the probe's cascade alone."""
    g = stream(seed, 0)

    def cases():  # each party's members in name order, a draw for each that keeps the guard
        given = inst and _by_name(inst)  # a given instance is sorted once
        for one, core in _probes(count, inst, g, max_side):
            every = given or _by_name(one)
            removed = g.below(2) != 0  # the party, by ``offline``
            probe = g.choice(every)
            frame, _, cutoff = _stability_guard(core, removed, *probe[1:])
            xs = [(x, q) for x, o, q in every if o is removed
                  and not 0 <= cutoff <= frame.mate_a[q] and g.below(2) == 0]
            yield one, core, removed, xs, probe

    def check(one, core: tuple, offline_removed: bool, xs: list, probe: tuple) -> List[str]:
        try:
            if _stable(core, offline_removed, xs, *probe[1:]):
                return []
        except GuardViolation as e:
            return [f"sampler produced a guard breach: {e}"]
        return [f"cascade from {probe[0]!r} changed after deleting {[x for x, _ in xs]}"]

    return _run("lemma5", cases(), check)


def suite_lemma6(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Reduced-graph zig equals original-graph zag at every matched vertex."""

    def check(one: BipartiteInstance, core: tuple, x: str, offline: bool, q: int) -> List[str]:
        return [] if _zig_zag_symmetric(core, offline, q) else [
            f"zig and zag disagree after deleting {x!r}"]

    def matched(one: BipartiteInstance, core: tuple) -> list:  # by name
        return [v for v in _by_name(one) if core[not v[1]].mate_a[v[2]] >= 0]

    return _run("lemma6", _vertex_cases(count, inst, seed, max_side, matched), check)


def _alternates(path: List[int], mate_a: List[int], n: int) -> bool:
    """``is_alternating_path`` of ``tests/oracles.py`` on a frame's vertex ids, n ranked,
    against the matching of the arrival side's mates ``mate_a``."""
    ins = [x < n <= y and mate_a[y - n] == x or y < n <= x and mate_a[x - n] == y
           for x, y in zip(path, path[1:])]
    return not any(ins[0::2]) and all(ins[1::2]) or not any(ins[1::2])


def _covered(mate_a: List[int], n: int) -> set:
    """``vertices`` of ``tests/oracles.py`` on a frame's vertex ids: the ones ``mate_a`` matches."""
    return {i for i in mate_a if i >= 0} | {j + n for j, i in enumerate(mate_a) if i >= 0}


def _removal_failures(
    one: BipartiteInstance, core: tuple, x: str, offline: bool, p: int, paths: bool = True
) -> List[str]:
    """Deleting x, position p of the party ``offline``: the size drops by 0 or
    1, and (``paths``) along a cascade."""
    try:
        base, cut, path = _cascade(core, offline, p, one)
    except DichotomyViolation as e:
        return [str(e)]
    drop = (len(base) - base.count(-1)) - (len(cut) - cut.count(-1))
    if drop not in (0, 1):
        return [f"deleting {x!r} changed the size by {drop}"]
    if not paths or path is None:
        return []
    if path[0] != p:
        return [f"cascade does not start at {x!r}"]
    if len(set(path)) != len(path):
        return [f"cascade from {x!r} revisits a vertex"]
    n = len(one.ranking if offline else one.arrival)
    if not all(_alternates(path, m, n) for m in (base, cut)):
        return [f"cascade from {x!r} does not alternate against both matchings"]
    if not _covered(base, n).issuperset(path[:-1]):
        return [f"cascade from {x!r} has an uncovered interior vertex"]
    return []


def suite_lemma7(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one arriving vertex changes the output by one cascade path."""
    side = lambda one, *_: [(x, False, j) for j, x in enumerate(one.arrival)]  # noqa: E731
    return _run("lemma7", _vertex_cases(count, inst, seed, max_side, side), _removal_failures)


def suite_lemma8(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one ranked vertex changes the output by one cascade path."""
    side = lambda one, *_: [(x, True, i) for i, x in enumerate(one.ranking)]  # noqa: E731
    return _run("lemma8", _vertex_cases(count, inst, seed, max_side, side), _removal_failures)


def suite_lemma9(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting one vertex never shrinks the output by more than one edge."""
    g = stream(seed, 0)
    verdicts: Dict[tuple, List[str]] = {}  # by (offline, position); a draw's only until the next

    def cases():
        # sides alternate, arrival side first; an empty side yields to the other
        for k, (one, core) in enumerate(_probes(count, inst, g, max_side)):
            side = (one.arrival, one.ranking)[k % 2] or (one.ranking, one.arrival)[k % 2]
            p = g.below(len(side))
            yield one, core, side[p], side is one.ranking, p

    def check(one, core: tuple, x: str, offline: bool, p: int) -> List[str]:
        if inst is None or (offline, p) not in verdicts:  # every draw is a fresh instance
            verdicts[offline, p] = _removal_failures(one, core, x, offline, p, paths=False)
        return verdicts[offline, p]

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
    g = stream(seed, 0)
    notes = {"pairs": 0, "moved_rank_holds": 0, "original_rank_holds": 0}

    def drawn() -> tuple:  # the planted pairs as ``_designated``'s array
        one, planted = _rand_planted(g, max_side, 5)
        return one, _star(one, planted)

    def check(one: BipartiteInstance, star: List[int]) -> List[str]:
        problems = []
        covered = set(_greedy(one.reach, len(one.arrival)))
        for bar, v in enumerate(one.ranking):
            if bar in covered:
                continue
            j = star[bar]
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

    def given(one: BipartiteInstance) -> List[tuple]:  # refused unless perfect
        _require_perfect(one)
        return [(one, _designated(one))]

    cases = _cases(count, inst, drawn, given)
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

    def check(one: BipartiteInstance) -> List[str]:
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
    cases = _cases(count, inst, lambda: _rand_planted(g, max_side, 6)[:1])
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
