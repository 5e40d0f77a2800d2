"""Randomized, replayable check suites.

Each suite draws `count` cases from a seed, verifies one structural or
probabilistic property per case, and reports failures together with the
self-contained instance file text that reproduces them.  Given an explicit
instance, a suite instead checks it exhaustively where that makes sense
(every removable vertex, every move target) and ignores `count`.

All randomness flows through one SplitMix64 master stream per run, so a
(suite, count, seed) triple is fully reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .engine import BipartiteInstance, online_match, is_ranking_matching
from .fileformat import fingerprint, serialize_instance
from .generators import gen_perfect, gen_random
from .graph import (
    all_matchings,
    is_alternating_path,
    partner,
    remove_vertices,
    vertices,
)
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
    check_rank_move,
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


def _rand_instance(g: SplitMix64, max_side: int) -> BipartiteInstance:
    n_off = g.below(max_side) + 1
    n_on = g.below(max_side) + 1
    p = 0.15 + 0.75 * g.uniform()
    return gen_random(n_off, n_on, p, g.next_u64())


def _rand_matched_instance(g: SplitMix64, max_side: int) -> BipartiteInstance:
    for _ in range(200):
        inst = _rand_instance(g, max_side)
        if online_match(inst):
            return inst
    raise RuntimeError("failed to draw an instance with a nonempty matching")


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
    failures: List[CaseFailure] = []
    cases = 0

    def check_one(one: BipartiteInstance) -> Optional[str]:
        gr, arr, rank = one.graph, one.arrival, one.ranking
        m = online_match(one)
        if not is_ranking_matching(gr, m, arr, rank):
            return "output fails the declarative characterization"
        for e in sorted(m, key=sorted):
            if not is_ranking_matching(remove_vertices(gr, e), m - {e}, arr, rank):
                return (
                    f"removing the matched pair {sorted(e)} breaks the "
                    "characterization of the remaining matching"
                )
        if len(rank) <= 5 and len(arr) <= 5:
            hits = []
            for mm in all_matchings(gr):
                a = is_ranking_matching(gr, mm, arr, rank)
                b = is_ranking_matching(gr, mm, rank, arr)
                if a != b:
                    return "party swap changed a verdict"
                if a:
                    hits.append(mm)
            if len(hits) != 1:
                return (
                    f"{len(hits)} matchings satisfy the characterization, "
                    "expected exactly one"
                )
            if hits[0] != m:
                return "the unique satisfying matching is not the computed one"
        return None

    for one in [inst] if inst is not None else (
        _rand_instance(g, max_side) for _ in range(count)
    ):
        cases += 1
        problem = check_one(one)
        if problem:
            failures.append(CaseFailure(problem, serialize_instance(one)))
    return SuiteResult("ranking-matching", cases, failures)


def suite_lemma3(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Every link of the per-rank chain holds exactly on planted instances."""
    g = _master(seed)
    failures: List[CaseFailure] = []
    cases = 0

    def run_one(one: BipartiteInstance, m_star: frozenset) -> None:
        nonlocal cases
        cases += 1
        for link in lemma3_chain(one, m_star):
            if not link.holds:
                failures.append(
                    CaseFailure(
                        f"chain link broken at t={link.t}", serialize_instance(one)
                    )
                )
                return

    if inst is not None:
        run_one(inst, _require_perfect_matching(inst))
    else:
        for _ in range(count):
            n = g.below(min(max_side, 6)) + 1
            one, planted = gen_perfect(n, 0.6 * g.uniform(), g.next_u64())
            run_one(one, planted)
    return SuiteResult("lemma3", cases, failures)


def suite_lemma5(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Deleting guard-respecting vertices leaves the probe's cascade alone."""
    g = _master(seed)
    failures: List[CaseFailure] = []
    cases = 0
    for _ in range(count):
        one = inst if inst is not None else _rand_instance(g, max_side)
        m = online_match(one)
        from_arrival = g.below(2) == 0
        party = sorted(one.online if from_arrival else one.offline)
        probe = g.choice(sorted(one.offline | one.online))

        # replicate the checker's orientation to know the guard cutoff
        if from_arrival:
            rank_order, probe_on_rank_side = one.ranking, probe in one.offline
        else:
            rank_order, probe_on_rank_side = one.arrival, probe in one.online
        if probe_on_rank_side:
            cutoff: Optional[int] = rank_order.index(probe)
        else:
            mate = partner(m, probe)
            cutoff = None if mate is None else rank_order.index(mate)

        def allowed(x: str) -> bool:
            w = partner(m, x)
            if w is None:
                return True
            if cutoff is None:
                return True
            return rank_order.index(w) < cutoff

        xs = frozenset(x for x in party if allowed(x) and g.below(2) == 0)
        cases += 1
        try:
            ok = check_removal_stability(one, xs, probe)
        except GuardViolation as e:
            failures.append(
                CaseFailure(f"sampler produced a guard breach: {e}", serialize_instance(one))
            )
            continue
        if not ok:
            failures.append(
                CaseFailure(
                    f"cascade from {probe!r} changed after deleting {sorted(xs)}",
                    serialize_instance(one),
                )
            )
    return SuiteResult("lemma5", cases, failures)


def suite_lemma6(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 8
) -> SuiteResult:
    """Reduced-graph zig equals original-graph zag at every matched vertex."""
    g = _master(seed)
    failures: List[CaseFailure] = []
    cases = 0

    def probe_one(one: BipartiteInstance, x: str) -> None:
        nonlocal cases
        cases += 1
        if not check_zig_zag_symmetry(one, x):
            failures.append(
                CaseFailure(
                    f"zig and zag disagree after deleting {x!r}", serialize_instance(one)
                )
            )

    if inst is not None:
        for x in sorted(vertices(online_match(inst))):
            probe_one(inst, x)
    else:
        for _ in range(count):
            one = _rand_matched_instance(g, max_side)
            probe_one(one, g.choice(sorted(vertices(online_match(one)))))
    return SuiteResult("lemma6", cases, failures)


def _diff_case(
    one: BipartiteInstance, x: str, online_side: bool, failures: List[CaseFailure]
) -> None:
    diff = removal_diff_online(one, x) if online_side else removal_diff_offline(one, x)
    lo, hi = len(diff.reduced), len(diff.baseline)
    if not (0 <= hi - lo <= 1):
        failures.append(
            CaseFailure(
                f"deleting {x!r} changed the size by {hi - lo}", serialize_instance(one)
            )
        )
        return
    if diff.path is None:
        return
    p = diff.path
    covered = vertices(diff.baseline)
    if p[0] != x:
        failures.append(
            CaseFailure(f"cascade does not start at {x!r}", serialize_instance(one))
        )
    elif not (
        is_alternating_path(p, diff.baseline) and is_alternating_path(p, diff.reduced)
    ):
        failures.append(
            CaseFailure(
                f"cascade from {x!r} does not alternate against both matchings",
                serialize_instance(one),
            )
        )
    elif any(v not in covered for v in p[:-1]):
        failures.append(
            CaseFailure(
                f"cascade from {x!r} has an uncovered interior vertex",
                serialize_instance(one),
            )
        )


def _suite_removal(
    name: str,
    online_side: bool,
    count: int,
    seed: int,
    inst: Optional[BipartiteInstance],
    max_side: int,
) -> SuiteResult:
    g = _master(seed)
    failures: List[CaseFailure] = []

    def side(one: BipartiteInstance) -> tuple:
        return one.arrival.order if online_side else one.ranking.order

    if inst is not None:
        todo = [(inst, x) for x in side(inst)]
    else:
        todo = []
        for _ in range(count):  # per case: instance first, then the vertex
            one = _rand_instance(g, max_side)
            todo.append((one, g.choice(side(one))))
    for one, x in todo:
        try:
            _diff_case(one, x, online_side, failures)
        except DichotomyViolation as e:
            failures.append(CaseFailure(str(e), serialize_instance(one)))
    return SuiteResult(name, len(todo), failures)


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
    failures: List[CaseFailure] = []
    cases = 0
    for k in range(count):
        one = inst if inst is not None else _rand_instance(g, max_side)
        online_side = k % 2 == 0
        side = one.arrival.order if online_side else one.ranking.order
        x = g.choice(side)
        diff = (
            removal_diff_online(one, x) if online_side else removal_diff_offline(one, x)
        )
        cases += 1
        drop = len(diff.baseline) - len(diff.reduced)
        if drop not in (0, 1):
            failures.append(
                CaseFailure(
                    f"deleting {x!r} changed the size by {drop}", serialize_instance(one)
                )
            )
    return SuiteResult("lemma9", cases, failures)


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
    failures: List[CaseFailure] = []
    cases = 0
    pairs = moved_ok = original_ok = 0

    def run_one(one: BipartiteInstance, m_star: frozenset) -> None:
        nonlocal cases, pairs, moved_ok, original_ok
        cases += 1
        m = online_match(one)
        covered = vertices(m)
        for v in one.ranking:
            if v in covered:
                continue
            for i in range(len(one.ranking)):
                verdict = check_rank_move(one, m_star, v, i)
                pairs += 1
                if not verdict.partner_matched:
                    failures.append(
                        CaseFailure(
                            f"designated partner of {v!r} unmatched after move to {i}",
                            serialize_instance(one),
                        )
                    )
                    continue
                moved_ok += verdict.holds_moved_rank
                original_ok += verdict.holds_original_rank
                if not (verdict.holds_moved_rank or verdict.holds_original_rank):
                    failures.append(
                        CaseFailure(
                            f"no rank reading holds for {v!r} moved to {i}",
                            serialize_instance(one),
                        )
                    )

    if inst is not None:
        run_one(inst, _require_perfect_matching(inst))
    else:
        for _ in range(count):
            n = g.below(min(max_side, 5)) + 1
            one, planted = gen_perfect(n, 0.6 * g.uniform(), g.next_u64())
            run_one(one, planted)

    notes = {
        "pairs": pairs,
        "moved_rank_holds": moved_ok,
        "original_rank_holds": original_ok,
    }
    if pairs and not (moved_ok == pairs or original_ok == pairs):
        failures.append(
            CaseFailure(
                f"neither rank reading held on all {pairs} pairs "
                f"(moved {moved_ok}, original {original_ok})",
                "",
            )
        )
    return SuiteResult("rank-move", cases, failures, notes)


def _suite_ratio(
    name: str,
    checker: Callable,
    make: Callable[[SplitMix64], BipartiteInstance],
    count: int,
    seed: int,
    inst: Optional[BipartiteInstance],
) -> SuiteResult:
    g = _master(seed)
    failures: List[CaseFailure] = []
    rows: List[dict] = []
    cases = 0
    for _ in range(1 if inst is not None else count):
        one = inst if inst is not None else make(g)
        t0 = time.perf_counter()
        verdict = checker(one)
        ms = (time.perf_counter() - t0) * 1000.0
        cases += 1
        rows.append(exact_row(fingerprint(one), verdict, ms))
        if not verdict.holds:
            failures.append(
                CaseFailure("expected ratio fell below the bound", serialize_instance(one))
            )
    return SuiteResult(name, cases, failures, {"rows": rows})


def suite_theorem4(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Expected ratio meets the bound on instances with a planted perfect matching."""

    def make(g: SplitMix64) -> BipartiteInstance:
        n = g.below(min(max_side, 6)) + 1
        one, _ = gen_perfect(n, 0.6 * g.uniform(), g.next_u64())
        return one

    return _suite_ratio("theorem4", check_theorem4, make, count, seed, inst)


def suite_theorem6(
    count: int, seed: int, inst: Optional[BipartiteInstance] = None, max_side: int = 6
) -> SuiteResult:
    """Expected ratio meets the bound with n the maximum matching size."""

    def make(g: SplitMix64) -> BipartiteInstance:
        return _rand_instance(g, min(max_side, 6))

    return _suite_ratio("theorem6", check_theorem6, make, count, seed, inst)


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
