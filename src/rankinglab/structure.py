"""Structural probes for the rank-greedy matcher.

The central object is the cascade: when a vertex is deleted, the computed
matching does not change arbitrarily but along a single alternating path.
Every cascade is one walk, ``_walk``, on positions: the partner arrays that
``engine._greedy`` returns and one adjacency bitmask per arrival-side
position.  ``_Core`` computes an instance's greedy, both mate arrays and the
transposed masks once, in both orientations of the parties; a deletion
zeroes one mask and reruns ``_greedy``; a rank move, ``_rank_move``, moves
one offline id in the order and reruns it on ``reach``.  The core reads no
names.  The ``removal_diff_*`` and ``check_*`` functions turn the structural
claims into executable verdicts on it, translating names to positions once,
and the suites hold one core per instance.  ``zig`` and ``zag`` are the
literal walk on a ``ZigZagContext``: a zig step goes to the mate, a zag step
to the one entry of ``shift_targets``, which lists what ``shifts_to``, the
literal definition of the shift relation, allows.  The tests hold ``_walk``
and the literal walk to the same paths.

A ``ZigZagContext`` bundles a graph, a matching over it, and the two orders.
The party roles inside a context are positional: ``ranking`` names the side
zig starts from, ``arrival`` the side zag starts from.  Swapping the two
orders is how every mirrored statement is expressed; there is no separate
code path for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import BipartiteInstance, Permutation, _greedy, _inverse, _move_id, _transpose
from .engine import rank_match
from .graph import Vertex, _mate_map, is_matching, partner
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
        object.__setattr__(self, "mate", _mate_map(self.matching))

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


def _walk(x: int, zig_step: bool, adj: Sequence[int], mate_r: list, mate_a: list) -> list:
    """The cascade path from position x, alternating zig steps and zag steps.

    Bit i of ``adj[j]`` joins arrival-side position j to ranking-side i,
    and ``mate_r``/``mate_a`` give each ranking-/arrival-side position its
    mate (-1 for none).  A zig step goes to the mate.  A zag step goes from
    j, matched to i, to the lowest set bit of ``adj[j]`` above i whose
    holder is none or arrives no earlier than j: the unique ``shifts_to``
    target.  Ranks strictly increase, so the path ends within |ranking| zag
    steps.
    """
    path = [x]
    while True:
        if zig_step:
            x = mate_r[x]
        else:
            j, i, x = x, mate_a[x], -1
            bits = adj[j] >> i + 1 << i + 1 if i >= 0 else 0
            while bits:
                w = (bits & -bits).bit_length() - 1
                if not 0 <= mate_r[w] < j:
                    x = w
                    break
                bits &= bits - 1
        if x < 0:
            return path
        path.append(x)
        zig_step = not zig_step


def _named(path: list, first, second) -> Tuple[Vertex, ...]:
    """A walk's positions by name: it starts on side ``first``, sides alternate."""
    return tuple((second if k % 2 else first)[p] for k, p in enumerate(path))


def _name_walk(ctx: ZigZagContext, x: Vertex, zig_step: bool) -> Tuple[Vertex, ...]:
    """The walk from x: zig steps go to the mate, zag steps to its shift target."""
    path = [x]
    while True:
        mate = ctx.mate.get(x)
        x = mate if zig_step else next(iter(shift_targets(ctx, x, mate)), None)
        if x is None:
            return tuple(path)
        path.append(x)
        zig_step = not zig_step


def zig(ctx: ZigZagContext, v: Vertex) -> Tuple[Vertex, ...]:
    """Cascade path starting at ranking-side vertex v.

    [v] when v is unmatched, otherwise v followed by the zag from its
    partner.  Ends within |ranking| steps on any context.
    """
    return _name_walk(ctx, v, zig_step=True)


def zag(ctx: ZigZagContext, u: Vertex) -> Tuple[Vertex, ...]:
    """Cascade path starting at arrival-side vertex u.

    [u] when u is unmatched or has nowhere to shift, otherwise u followed by
    the zig from its shift target.  Ends within |ranking| steps, as zig.
    """
    return _name_walk(ctx, u, zig_step=False)


@dataclass(frozen=True)
class RemovalDiff:
    """Outcome of deleting one vertex: either no change or one cascade path."""

    baseline: frozenset
    reduced: frozenset
    path: Optional[Tuple[Vertex, ...]]

    @property
    def equal(self) -> bool:
        return self.path is None


class _Frame(NamedTuple):
    """A context on positions: the two orders, ``_walk``'s masks and mates."""

    ranking: Permutation
    arrival: Permutation
    adj: Sequence[int]
    mate_r: list
    mate_a: list

    def without(self, q: int) -> "_Frame":
        """Arrival-side q deleted: its mask zeroed and ``_greedy`` rerun."""
        adj = list(self.adj)
        adj[q] = 0
        mate_r = _greedy(adj, range(len(adj)), len(self.ranking))
        return _Frame(self.ranking, self.arrival, adj, mate_r, _inverse(mate_r, len(adj)))

    def matching(self) -> frozenset:
        r, a = self.ranking.order, self.arrival.order
        return frozenset(frozenset((r[i], a[j])) for i, j in enumerate(self.mate_r) if j >= 0)


class _Core:
    """An instance's greedy on positions, computed once for every check on it.

    ``frames[True]`` ranks the offline party, ``frames[False]`` the arrivals;
    only this module reads ``frames``, so callers never pick a side by flag.
    Their masks are the transpose of ``inst.reach`` and ``inst.reach``; the
    arrival side taking its lowest free neighbour in order is the online
    fold in one and the party-swapped greedy in the other, one matching, so
    ``_greedy``'s partner array and its inverse are the mates of both.
    """

    def __init__(self, inst: BipartiteInstance):
        reach, arrivals = inst.reach, len(inst.arrival)
        prs = _greedy(reach, range(len(reach)), arrivals)
        ids, cols = _inverse(prs, len(reach)), _transpose(reach, arrivals)
        self.inst = inst
        self.frames = {
            True: _Frame(inst.ranking, inst.arrival, cols, ids, prs),
            False: _Frame(inst.arrival, inst.ranking, reach, prs, ids),
        }
        self.matching = self.frames[False].matching()


def _removal_diff(core: _Core, x: Vertex) -> RemovalDiff:
    """Deleting x: the walk from x in the frame that ranks x's party."""
    offline = x in core.inst.ranking
    r, a, adj, mate_r, mate_a = core.frames[offline]
    p = r.index(x)
    reduced = core.frames[not offline].without(p)
    if reduced.mate_r == mate_a:
        return RemovalDiff(core.matching, core.matching, None)
    path = _named(_walk(p, True, adj, mate_r, mate_a), r, a)
    diff = {
        frozenset((a[j], r[i]))
        for j, pair in enumerate(zip(mate_a, reduced.mate_r))
        if pair[0] != pair[1]
        for i in pair
        if i >= 0
    }
    if set(map(frozenset, zip(path, path[1:]))) != diff:
        raise DichotomyViolation(
            f"deleting {x!r} changed the matching by {sorted(map(sorted, diff))}, "
            f"not by the cascade path {list(path)}"
        )
    return RemovalDiff(core.matching, reduced.matching(), path)


def removal_diff_online(inst: BipartiteInstance, u: Vertex) -> RemovalDiff:
    """Difference report for deleting the arrival-side vertex u.

    The matchings before and after either coincide or differ exactly by the
    edges of the cascade path that starts at u (computed with the party
    roles swapped, since u sits on the arrival side).  Any other outcome
    raises DichotomyViolation.
    """
    if u not in inst.arrival:
        raise KeyError(f"{u!r} is not an arrival-side vertex")
    return _removal_diff(_Core(inst), u)


def removal_diff_offline(inst: BipartiteInstance, v: Vertex) -> RemovalDiff:
    """Difference report for deleting the ranking-side vertex v."""
    if v not in inst.ranking:
        raise KeyError(f"{v!r} is not a ranking-side vertex")
    return _removal_diff(_Core(inst), v)


def _zig_zag_symmetric(core: _Core, x: Vertex) -> bool:
    online = x in core.inst.arrival
    frame = core.frames[online]  # x arrives: the zig's frame
    q = frame.arrival.index(x)
    mate = frame.mate_a[q]
    if mate < 0:
        raise ValueError(f"removed vertex {x!r} must be matched")
    zig_path = _walk(mate, True, *frame.without(q)[2:])
    return zig_path == _walk(mate, False, *core.frames[not online][2:])


def check_zig_zag_symmetry(inst: BipartiteInstance, x: Vertex) -> bool:
    """Deleting matched x: the reduced zig equals the original zag.

    Both paths start at x's partner.  The zig runs over the reduced graph
    and its recomputed matching; the zag runs over the original pair with
    the party roles swapped relative to the zig.  Requires x matched.
    """
    if x not in inst.arrival.members | inst.ranking.members:
        raise KeyError(f"{x!r} is not a vertex of the instance")
    return _zig_zag_symmetric(_Core(inst), x)


def _stability_guard(core: _Core, offline_removed: bool, probe: Vertex):
    """Frame, walk start, walk kind and guard test for deletions from one party.

    The removed party plays the arrival side.  ``breach(x)`` says how x
    breaks the guard of ``check_removal_stability``, and is empty when x
    keeps it (always, when an arrival-side probe is unmatched).
    """
    frame = core.frames[not offline_removed]
    r, a, mate_a = frame.ranking, frame.arrival, frame.mate_a
    if probe in r:
        start = cutoff = r.index(probe)
    elif probe in a:
        start = a.index(probe)
        cutoff = mate_a[start]
    else:
        raise KeyError(f"{probe!r} is not a vertex of the instance")

    def breach(x: Vertex) -> str:
        i = mate_a[a.index(x)]
        if not 0 <= cutoff <= i:
            return ""
        return (
            f"removed vertex {x!r} is matched at rank {i}, "
            f"not strictly before the probe cutoff {cutoff}"
        )

    return frame, start, probe in r, breach


def _stable(core: _Core, xs: frozenset, probe: Vertex) -> bool:
    offline_removed = not xs <= core.inst.arrival.members
    if offline_removed and not xs <= core.inst.ranking.members:
        raise ValueError("removed vertices must all lie in one party")
    frame, start, zig_step, breach = _stability_guard(core, offline_removed, probe)
    for x in sorted(xs):
        if breach(x):
            raise GuardViolation(breach(x))
    # clear the removed vertices' pairs; the walk meets an arrival-side vertex
    # only through its pair, so their masks are never read
    _, a, adj, mate_r, mate_a = frame
    kept_r, kept_a = list(mate_r), list(mate_a)
    for q in map(a.index, xs):
        if mate_a[q] >= 0:
            kept_r[mate_a[q]] = kept_a[q] = -1
    kept = _walk(start, zig_step, adj, kept_r, kept_a)
    return kept == _walk(start, zig_step, adj, mate_r, mate_a)


def check_removal_stability(
    inst: BipartiteInstance, removed: AbstractSet, probe: Vertex
) -> bool:
    """Cascades ignore deleted vertices that rank behind the probe.

    ``removed`` must lie in one party.  Guard: every matched removed vertex
    has a partner ranked strictly before the probe (zig form, probe on the
    ranking side) or before the probe's own partner (zag form, probe on the
    arrival side; vacuous when the probe is unmatched).  A guard breach
    raises GuardViolation; under the guard, the verdict is whether the path
    in the reduced context (the baseline less the removed vertices' pairs,
    on the graph without them) equals the path in the full one.
    """
    return _stable(_Core(inst), frozenset(removed), probe)


@dataclass(frozen=True)
class RankMoveVerdict:
    """What happened to the designated partner after moving an unmatched vertex.

    ``skipped`` is True when the hypothesis fails (the moved vertex was
    matched), in which case the other fields are None.  Otherwise
    ``partner_matched`` says whether the designated partner is covered in
    the rerun, and the two ``holds_*`` fields compare its new mate's rank
    (in the moved order and in the original order, respectively) against
    the moved vertex's original rank.  ``partner_position`` is that mate's
    index in the moved order, when there is one.
    """

    skipped: bool
    partner_matched: Optional[bool]
    holds_moved_rank: Optional[bool]
    holds_original_rank: Optional[bool]
    partner_position: Optional[int] = None


def check_rank_move(
    inst: BipartiteInstance, m_star: AbstractSet, v: Vertex, i: int
) -> RankMoveVerdict:
    """Move an unmatched ranked vertex to index i and watch its designated partner.

    ``m_star`` is a perfect matching supplying the designated partner
    u = m_star(v).  When v is unmatched in the baseline run, the claim under
    test is that u stays matched after the move, to a vertex ranked no worse
    than v's original rank.  Two readings of "no worse" are evaluated, one in
    the moved order and one in the original order, by ``_rank_move`` on v's
    rank and u's arrival index: the names are translated once, here.
    """
    if v not in inst.ranking:
        raise KeyError(f"{v!r} is not a ranking-side vertex")
    j = inst.arrival.index(partner(_validated_perfect(inst, m_star), v))
    if partner(rank_match(inst), v) is not None:
        return RankMoveVerdict(True, None, None, None)
    return _rank_move(inst.reach, len(inst.arrival), inst.ranking.index(v), j, i)


def _rank_move(reach, arrivals: int, bar: int, j: int, i: int) -> RankMoveVerdict:
    """``check_rank_move`` on the index, for an unmatched offline id ``bar``.

    Reranks ``reach`` with ``bar`` moved to index i and reads arrival j's
    ``_greedy`` entry p: its mate's moved rank, and ``order[p]`` the original.
    """
    order = _move_id(range(len(reach)), bar, i)
    p = _greedy(reach, order, arrivals)[j]
    if p < 0:
        return RankMoveVerdict(False, False, None, None)
    return RankMoveVerdict(False, True, p <= bar, order[p] <= bar, p)
