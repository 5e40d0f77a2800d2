"""Structural probes for the rank-greedy matcher.

The central object is the cascade: when a vertex is deleted, the computed
matching does not change arbitrarily but along a single alternating path.
``zig`` and ``zag`` construct that path with one loop over the matching's
mate map; ``shifts_to``, the literal definition of the shift relation, is
the oracle that loop is tested against.  The ``removal_diff_*`` / ``check_*``
functions turn the structural claims into executable verdicts that the
suites exercise on random instances.

A ``ZigZagContext`` bundles a graph, a matching over it, and the two orders.
The party roles inside a context are positional: ``ranking`` names the side
zig starts from, ``arrival`` the side zag starts from.  Swapping the two
orders is how every mirrored statement is expressed; there is no separate
code path for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Tuple

from .engine import BipartiteInstance, Permutation, _greedy, _move_id, rank_match
from .graph import (
    Vertex,
    is_matching,
    partner,
    path_edges,
    remove_vertices,
    symmetric_difference,
)
from .probability import _validated_perfect


class DichotomyViolation(RuntimeError):
    """A removal changed the matching by something other than one cascade path."""


class GuardViolation(ValueError):
    """A stability check was invoked on inputs that break its guard."""


@dataclass(frozen=True)
class ZigZagContext:
    graph: frozenset
    matching: frozenset
    arrival: Permutation
    ranking: Permutation
    #: vertex -> its partner in ``matching``, derived once from it
    mate: Dict[Vertex, Vertex] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "graph", frozenset(frozenset(e) for e in self.graph))
        object.__setattr__(self, "matching", frozenset(frozenset(e) for e in self.matching))
        if not is_matching(self.matching):
            raise ValueError("context matching is not a matching")
        if not self.matching <= self.graph:
            raise ValueError("context matching must be a subset of the graph")
        mate = {}
        for a, b in self.matching:
            mate[a], mate[b] = b, a
        object.__setattr__(self, "mate", mate)

    def swapped(self) -> "ZigZagContext":
        return ZigZagContext(self.graph, self.matching, self.ranking, self.arrival)


def shifts_to(
    ctx: ZigZagContext, u: Vertex, current: Vertex, candidate: Vertex
) -> bool:
    """Would u, upon losing ``current``, take ``candidate`` next?

    True iff u is on the arrival side and candidate on the ranking side,
    candidate is ranked strictly after current, the edge {u, candidate}
    exists, no arrival earlier than u already holds candidate in the
    matching, and every ranked vertex strictly between current and candidate
    is either not a neighbor of u or held by an arrival earlier than u.
    """
    r, a = ctx.ranking, ctx.arrival
    if u not in a or candidate not in r or current not in r:
        return False
    lo, hi = r.index(current), r.index(candidate)
    if not lo < hi:
        return False
    if frozenset((u, candidate)) not in ctx.graph:
        return False

    def held_earlier(v: Vertex) -> bool:
        w = ctx.mate.get(v)
        return w is not None and w in a and a.index(w) < a.index(u)

    if held_earlier(candidate):
        return False
    for mid in r.order[lo + 1 : hi]:
        if frozenset((u, mid)) in ctx.graph and not held_earlier(mid):
            return False
    return True


def shift_targets(ctx: ZigZagContext, u: Vertex, current: Vertex) -> List[Vertex]:
    """All ranked vertices u would shift to from ``current`` (zero or one)."""
    return [v for v in ctx.ranking if shifts_to(ctx, u, current, v)]


def _cascade(ctx: ZigZagContext, x: Vertex, zig_step: bool) -> Tuple[Vertex, ...]:
    """The cascade path from x, alternating zig steps and zag steps.

    A zig step goes from a vertex to its mate.  A zag step goes from
    arrival-side u, matched to ranking-side v, to the first neighbor of u
    after v in the ranking that no arrival earlier than u holds: by
    definition the unique w with ``shifts_to(ctx, u, v, w)``.  The path ends
    at the first step with nowhere to go.
    """
    r, a, g, mate = ctx.ranking, ctx.arrival, ctx.graph, ctx.mate
    path = [x]
    while True:
        v = mate.get(x)
        nxt = v if zig_step else None
        if not zig_step and x in a and v in r:
            t = a.index(x)
            for w in r.order[r.index(v) + 1 :]:
                h = mate.get(w)
                if frozenset((x, w)) in g and (h not in a or a.index(h) >= t):
                    nxt = w
                    break
        if nxt is None:
            return tuple(path)
        path.append(nxt)
        x, zig_step = nxt, not zig_step


def zig(ctx: ZigZagContext, v: Vertex) -> Tuple[Vertex, ...]:
    """Cascade path starting at ranking-side vertex v.

    [v] when v is unmatched, otherwise v followed by the zag from its
    partner.  Ranks strictly increase along the loop, so it takes at most
    |ranking| steps on any context.
    """
    return _cascade(ctx, v, zig_step=True)


def zag(ctx: ZigZagContext, u: Vertex) -> Tuple[Vertex, ...]:
    """Cascade path starting at arrival-side vertex u.

    [u] when u is unmatched or has nowhere to shift, otherwise u followed by
    the zig from its shift target.  Ends within |ranking| steps, as zig.
    """
    return _cascade(ctx, u, zig_step=False)


@dataclass(frozen=True)
class RemovalDiff:
    """Outcome of deleting one vertex: either no change or one cascade path."""

    baseline: frozenset
    reduced: frozenset
    path: Optional[Tuple[Vertex, ...]]

    @property
    def equal(self) -> bool:
        return self.path is None


def _context(inst: BipartiteInstance, offline_ranked: bool, matching, graph=None):
    """A context over ``inst`` whose ranking side is offline iff ``offline_ranked``."""
    orders = (inst.arrival, inst.ranking) if offline_ranked else (inst.ranking, inst.arrival)
    return ZigZagContext(inst.graph if graph is None else graph, matching, *orders)


def _removal_diff(inst: BipartiteInstance, x: Vertex) -> RemovalDiff:
    m = rank_match(inst)
    m2 = rank_match(inst.without_vertices({x}))
    if m == m2:
        return RemovalDiff(m, m2, None)
    p = zig(_context(inst, x in inst.ranking, m), x)
    diff = symmetric_difference(m, m2)
    if frozenset(path_edges(p)) != diff:
        raise DichotomyViolation(
            f"deleting {x!r} changed the matching by {sorted(map(sorted, diff))}, "
            f"not by the cascade path {list(p)}"
        )
    return RemovalDiff(m, m2, p)


def removal_diff_online(inst: BipartiteInstance, u: Vertex) -> RemovalDiff:
    """Difference report for deleting the arrival-side vertex u.

    The matchings before and after either coincide or differ exactly by the
    edges of the cascade path that starts at u (computed with the party
    roles swapped, since u sits on the arrival side).  Any other outcome
    raises DichotomyViolation.
    """
    if u not in inst.arrival:
        raise KeyError(f"{u!r} is not an arrival-side vertex")
    return _removal_diff(inst, u)


def removal_diff_offline(inst: BipartiteInstance, v: Vertex) -> RemovalDiff:
    """Difference report for deleting the ranking-side vertex v."""
    if v not in inst.ranking:
        raise KeyError(f"{v!r} is not a ranking-side vertex")
    return _removal_diff(inst, v)


def check_zig_zag_symmetry(inst: BipartiteInstance, x: Vertex) -> bool:
    """Deleting matched x: the reduced zig equals the original zag.

    Both paths start at x's partner.  The zig runs over the reduced graph
    and its recomputed matching; the zag runs over the original pair with
    the party roles swapped relative to the zig.  Requires x matched.
    """
    if x not in inst.arrival.members | inst.ranking.members:
        raise KeyError(f"{x!r} is not a vertex of the instance")
    m = rank_match(inst)
    mate = partner(m, x)
    if mate is None:
        raise ValueError(f"removed vertex {x!r} must be matched")
    reduced = inst.without_vertices({x})
    online = x in inst.arrival.members
    zig_ctx = _context(inst, online, rank_match(reduced), reduced.graph)
    return zig(zig_ctx, mate) == zag(_context(inst, not online, m), mate)


def _stability_guard(inst: BipartiteInstance, offline_removed: bool, probe: Vertex):
    """Context, cascade runner and guard test for deletions from one party.

    The removed party plays the arrival side.  ``breach(x)`` says how x
    breaks the guard of ``check_removal_stability``, and is empty when x
    keeps it (always, when an arrival-side probe is unmatched).
    """
    ctx = _context(inst, not offline_removed, rank_match(inst))
    rank = ctx.ranking._pos
    if probe in rank:
        cutoff, runner = rank[probe], zig
    elif probe in ctx.arrival:
        cutoff, runner = rank.get(ctx.mate.get(probe)), zag
    else:
        raise KeyError(f"{probe!r} is not a vertex of the instance")

    def breach(x: Vertex) -> str:
        r = rank.get(ctx.mate.get(x))
        if r is None or cutoff is None or r < cutoff:
            return ""
        return (
            f"removed vertex {x!r} is matched at rank {r}, "
            f"not strictly before the probe cutoff {cutoff}"
        )

    return ctx, runner, breach


def check_removal_stability(
    inst: BipartiteInstance, removed: AbstractSet, probe: Vertex
) -> bool:
    """Cascades ignore deleted vertices that rank behind the probe.

    ``removed`` must lie in one party.  Guard: every matched removed vertex
    has a partner ranked strictly before the probe (zig form, probe on the
    ranking side) or before the probe's own partner (zag form, probe on the
    arrival side; vacuous when the probe is unmatched).  A guard breach
    raises GuardViolation; under the guard, the verdict is whether the path
    in the reduced context equals the path in the full one.
    """
    xs = frozenset(removed)
    offline_removed = not xs <= inst.arrival.members
    if offline_removed and not xs <= inst.ranking.members:
        raise ValueError("removed vertices must all lie in one party")
    ctx, runner, breach = _stability_guard(inst, offline_removed, probe)
    for x in sorted(xs):
        if breach(x):
            raise GuardViolation(breach(x))
    kept = remove_vertices(ctx.matching, xs)
    reduced = _context(inst, not offline_removed, kept, remove_vertices(inst.graph, xs))
    return runner(reduced, probe) == runner(ctx, probe)


@dataclass(frozen=True)
class RankMoveVerdict:
    """What happened to the designated partner after moving an unmatched vertex.

    ``skipped`` is True when the hypothesis fails (the moved vertex was
    matched), in which case the other fields are None.  Otherwise
    ``partner_matched`` says whether the designated partner is covered in
    the rerun, and the two ``holds_*`` fields compare its new mate's rank
    (in the moved order and in the original order, respectively) against
    the moved vertex's original rank.
    """

    skipped: bool
    partner_matched: Optional[bool]
    holds_moved_rank: Optional[bool]
    holds_original_rank: Optional[bool]


def check_rank_move(
    inst: BipartiteInstance, m_star: AbstractSet, v: Vertex, i: int
) -> RankMoveVerdict:
    """Move an unmatched ranked vertex to index i and watch its designated partner.

    ``m_star`` is a perfect matching supplying the designated partner
    u = m_star(v).  When v is unmatched in the baseline run, the claim under
    test is that u stays matched after the move, to a vertex ranked no worse
    than v's original rank.  Two readings of "no worse" are evaluated, one
    in the moved order and one in the original order.
    """
    if v not in inst.ranking:
        raise KeyError(f"{v!r} is not a ranking-side vertex")
    return _rank_move(inst, _validated_perfect(inst, m_star), rank_match(inst), v, i)


def _rank_move(
    inst: BipartiteInstance, mset: frozenset, baseline: frozenset, v: Vertex, i: int
) -> RankMoveVerdict:
    """``check_rank_move`` given the validated ``mset`` and ``rank_match(inst)``.

    Reranks ``inst.reach`` with v's id ``bar`` moved to index i: the designated
    partner's ``_greedy`` entry p is its mate's moved rank, ``order[p]`` the original.
    """
    if partner(baseline, v) is not None:
        return RankMoveVerdict(True, None, None, None)
    n, bar = len(inst.ranking), inst.ranking.index(v)
    if not 0 <= i < n:
        raise IndexError(f"target index {i} out of range 0..{n - 1}")
    order = _move_id(range(n), bar, i)
    j = inst.arrival.index(partner(mset, v))
    p = _greedy(inst.reach, order, len(inst.arrival))[j]
    if p < 0:
        return RankMoveVerdict(False, False, None, None)
    return RankMoveVerdict(False, True, p <= bar, order[p] <= bar)
