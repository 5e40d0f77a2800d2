"""Literal oracles of the package's indexed paths, for the tests only.

Names are opaque string tokens.  An edge is a frozenset of two distinct
names (``Edge``, built by ``edge``), so undirected equality and set algebra
come for free, and a graph or a matching is a set of edges; ``vertices``,
``is_matching`` and ``partner`` read them without changing them.  A
caller's M* reaches the package in this form.

The paper's definitions, on names: ``online_match`` folds ``step``, one
arrival taking its best-ranked free neighbour, over the arrival order, and
``engine.rank_match`` is held to it; ``is_ranking_matching`` is the
declarative predicate, with ``is_bipartite`` among its conjuncts, that
``engine._ranking_holds`` decides on an index; ``zig`` and ``zag`` walk a
``ZigZagContext``, a zig step to the mate and a zag step to the one entry of
``shift_targets``, which lists what ``shifts_to``, the literal shift
relation, allows, and ``structure._walk`` is held to the same paths.  A
context's party roles are positional: ``ranking`` names the side zig starts
from, ``arrival`` the side zag starts from, and swapping the two orders
expresses every mirrored statement.

``all_matchings`` and ``max_card_matching`` (the exhaustive search of
``find_augmenting_path``) gate ``bipartite_max_matching``,
``graph._max_matching`` and ``engine._ranking_holds``, and
``bipartite_max_matching``, Kuhn's pass on names, gates
``graph._designated``, which designates M* on an index; both run
``graph._kuhn``, the package's one search.  ``validated_star``, the
name-level check of a caller's M* on the edge set (``_validated_perfect``)
read as an arrival position per ranked vertex, gates ``graph._star``; the
name-level path and removal algebra gates ``structure``'s cascades and
``suites._alternates``; the per-t functions on the ``_ensemble`` table gate
the layers of ``probability._layers`` and the prefix counts
``lemma3_chain`` reads off them, and ``check_lemma3`` is the chain's
inequality per t.  ``gen_gamma_family`` names the hard family's slot masks
as edge sets with every arrival order, and ``_gamma_ranking`` ranks a
graph's o-vertices by slot: through the validating constructor they are the
files that ``cli gen gamma`` writes straight from ``generators._gamma_masks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from rankinglab.engine import (
    BipartiteInstance,
    Permutation,
    Vertex,
    _greedy,
    _move_id,
    _ranking_holds,
    _transpose,
)
from rankinglab.fileformat import fingerprint
from rankinglab.generators import _gamma_masks
from rankinglab.graph import _kuhn, _star
from rankinglab.probability import DEFAULT_CAP, ExactReport, _check_cap, lemma3_chain


Edge = frozenset


def edge(a: Vertex, b: Vertex) -> Edge:
    """The undirected edge {a, b}; endpoints must be distinct."""
    if a == b:
        raise ValueError(f"edge endpoints must be distinct, got {a!r} twice")
    return frozenset((a, b))


def vertices(g: Iterable[Edge]) -> frozenset:
    """All endpoints of all edges of g."""
    out: set = set()
    for e in g:
        out.update(e)
    return frozenset(out)


def is_matching(m: Iterable[Edge]) -> bool:
    """True iff m consists of two-vertex edges that are pairwise disjoint."""
    seen: set = set()
    for e in m:
        if len(e) != 2:
            return False
        if e & seen:
            return False
        seen.update(e)
    return True


def partner(m: Iterable[Edge], v: Vertex) -> Optional[Vertex]:
    """The vertex matched to v in m, or None.  m must be a matching."""
    found = None
    for e in m:
        if v in e:
            if found is not None:
                raise ValueError(f"{v!r} is covered twice; not a matching")
            (found,) = e - {v}
    return found


def _mate_map(m: Iterable[Edge]) -> Dict[Vertex, Vertex]:
    """Each vertex the matching m (of two-vertex edges) covers, mapped to its partner."""
    return {x: y for a, b in m for x, y in ((a, b), (b, a))}


def is_bipartite(g: Iterable[Edge], left: AbstractSet, right: AbstractSet) -> bool:
    """True iff every endpoint is declared and no edge stays inside one side."""
    for e in g:
        if not all(x in left or x in right for x in e):
            return False
        if e <= left or e <= right:
            return False
    return True


def step(g: frozenset, u: Vertex, ranked: Sequence[Vertex], m: frozenset) -> frozenset:
    """One arrival: u takes the first free ranked neighbor, if any.

    Scans ``ranked`` in order and inserts {u, v} for the first v such that
    both u and v are uncovered by m and the edge exists in g.  Returns m
    unchanged when no such v exists.
    """
    covered = vertices(m)
    mm = frozenset(m)
    for v in ranked:
        if v not in covered and u not in covered and frozenset((u, v)) in g:
            return mm | {frozenset((u, v))}
    return mm


def online_match(inst: BipartiteInstance) -> frozenset:
    """The matching produced by folding ``step`` over the arrival order."""
    m: frozenset = frozenset()
    for u in inst.arrival:
        m = step(inst.graph, u, inst.ranking.order, m)
    return m


def is_ranking_matching(
    g: frozenset, m: frozenset, arrival: Permutation, ranking: Permutation
) -> bool:
    """Declarative test that m is the rank-greedy outcome on (g, orders).

    Five conjuncts: m is a matching inside g; g is bipartite between the two
    disjoint parties; m is maximal in g; no arriving vertex skipped a free
    better-ranked neighbor; and the same first-choice condition with the
    parties' roles swapped.  The conjunction is symmetric under exchanging
    the two orders.  It indexes g, arrivals choosing, for ``_ranking_holds``;
    an edge of three or more ends that spans both parties needs one end
    covered.
    """
    gset = frozenset(frozenset(e) for e in g)
    mset = frozenset(frozenset(e) for e in m)
    parties = not arrival.members & ranking.members
    parties = parties and is_bipartite(gset, arrival.members, ranking.members)
    if not (parties and mset <= gset and is_matching(mset)):
        return False
    rows = [sum(1 << j for j, u in enumerate(arrival) if {u, v} in gset) for v in ranking]
    cols = _transpose(rows, len(arrival))
    mate = _mate_map(mset)  # every edge has two ends
    prs = [ranking._pos.get(mate.get(u), -1) for u in arrival]
    return all(e & mate.keys() for e in gset if len(e) > 2) and _ranking_holds(prs, cols, rows)


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


def neighbors(g: Iterable[Edge], v: Vertex) -> frozenset:
    """The vertices adjacent to v in g."""
    out = set()
    for e in g:
        if v in e:
            out.update(e - {v})
    return frozenset(out)


def is_maximal_matching(g: AbstractSet, m: AbstractSet) -> bool:
    """True iff m is a matching and no edge of g extends it.

    Raises ValueError when m is not a subset of g; that always signals a bug
    in the caller rather than a property worth reporting false for.
    """
    mset = frozenset(m)
    if not mset <= frozenset(g):
        raise ValueError("m must be a subset of g")
    if not is_matching(mset):
        return False
    covered = vertices(mset)
    return all(e & covered for e in g)


def remove_vertices(g: Iterable[Edge], xs: AbstractSet) -> frozenset:
    """The subgraph left after deleting the vertices xs and their edges."""
    return frozenset(e for e in g if not (e & xs))


def symmetric_difference(m1: Iterable[Edge], m2: Iterable[Edge]) -> frozenset:
    """Edges in exactly one of the two sets."""
    return frozenset(m1) ^ frozenset(m2)


def path_edges(p: Sequence[Vertex]) -> List[Edge]:
    """The consecutive edges of a vertex path.

    A path is a sequence of pairwise distinct vertices; anything else is a
    malformed input and raises ValueError.
    """
    if len(set(p)) != len(p):
        raise ValueError("path vertices must be pairwise distinct")
    return [frozenset((p[i], p[i + 1])) for i in range(len(p) - 1)]


def is_alternating_path(p: Sequence[Vertex], e: AbstractSet) -> bool:
    """Whether the edges of p alternate against the edge set e.

    Membership is tested against a witness set E' that is either e itself or
    disjoint from e; edges at even positions (counting from one) must lie in
    E', edges at odd positions must not.  With E' = e this is the familiar
    out-in-out pattern.  The disjoint witness can always be taken to be the
    even-position edges themselves, so that phase reduces to those edges
    avoiding e.  Paths with at most one edge alternate vacuously.
    """
    es = path_edges(p)
    eset = frozenset(e)
    evens_in = all(x in eset for x in es[1::2])
    odds_out = all(x not in eset for x in es[0::2])
    if odds_out and evens_in:
        return True
    return all(x not in eset for x in es[1::2])


def is_augmenting_path(p: Sequence[Vertex], m: AbstractSet) -> bool:
    """Whether flipping p along m would grow the matching m by one edge.

    The edges of p must strictly alternate starting outside m, the path needs
    at least two vertices, and both ends must be uncovered by m.
    """
    if len(p) < 2:
        return False
    es = path_edges(p)
    mset = frozenset(m)
    if any(x in mset for x in es[0::2]):
        return False
    if any(x not in mset for x in es[1::2]):
        return False
    covered = vertices(mset)
    return p[0] not in covered and p[-1] not in covered


def find_augmenting_path(g: AbstractSet, m: AbstractSet) -> Optional[List[Vertex]]:
    """A deterministic augmenting path for m in g, or None.

    Performs an exhaustive alternating depth-first search from every
    uncovered vertex in ascending name order, visiting neighbors in ascending
    name order.  Backtracking keeps the search complete on any finite graph,
    including non-bipartite ones, at an exponential worst case.  It is kept
    as the search behind ``max_card_matching``, the general-graph oracle
    that ``bipartite_max_matching`` is tested against edge for edge.
    """
    mset = frozenset(m)
    gset = frozenset(g)
    if not is_matching(mset):
        raise ValueError("m must be a matching")
    if not mset <= gset:
        raise ValueError("m must be a subset of g")
    adj = {v: sorted(neighbors(gset, v)) for v in vertices(gset)}
    mate = _mate_map(mset)  # its keys are the vertices m covers

    def extend(path: List[Vertex], seen: frozenset) -> Optional[List[Vertex]]:
        # the last path vertex is free or was entered along its matched edge,
        # so every unseen neighbor continues with a non-matching edge
        for w in adj[path[-1]]:
            if w in seen:
                continue
            if w not in mate:
                return path + [w]
            x = mate[w]
            if x in seen:
                continue
            found = extend(path + [w, x], seen | {w, x})
            if found is not None:
                return found
        return None

    for s in sorted(vertices(gset) - mate.keys()):
        found = extend([s], frozenset((s,)))
        if found is not None:
            return found
    return None


def max_card_matching(g: AbstractSet) -> frozenset:
    """A maximum-cardinality matching of g, deterministically chosen."""
    m: frozenset = frozenset()
    while True:
        p = find_augmenting_path(g, m)
        if p is None:
            return m
        m = symmetric_difference(m, path_edges(p))


def _two_colour(adj: Dict[Vertex, List[Vertex]]) -> None:
    """Raise ValueError unless the graph with adjacency ``adj`` is bipartite."""
    side: Dict[Vertex, bool] = {}
    for root in adj:
        if root in side:
            continue
        side[root] = False
        todo = [root]
        while todo:
            a = todo.pop()
            for b in adj[a]:
                if b not in side:
                    side[b] = not side[a]
                    todo.append(b)
                elif side[b] == side[a]:
                    raise ValueError(f"graph is not bipartite: odd cycle through {b!r}")


def bipartite_max_matching(g: AbstractSet) -> frozenset:
    """``max_card_matching(g)`` on a bipartite graph, in polynomial time.

    Kuhn's method (1955) in name order: with the vertices numbered by name,
    ``_kuhn`` runs from each one still uncovered, in that order, on their
    neighbour masks, one ``mate`` list serving as both partner arrays.  Its
    searches visit neighbours in name order, and a failed search's marks, on
    the side opposite its start, hold until the next augmentation.  On a
    bipartite graph that prunes only subtrees in which the exhaustive search
    finds no path either, and a vertex with no augmenting path never gains
    one later (Berge), so the pass makes the exhaustive loop's augmentations
    in the same order and returns the same matching, edge for edge.

    Raises ValueError when g has an odd cycle.
    """
    adj: Dict[Vertex, List[Vertex]] = {}
    for e in g:
        a, b = e
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    _two_colour(adj)
    names = sorted(adj)
    pos = {v: i for i, v in enumerate(names)}
    masks = [sum(1 << pos[w] for w in adj[v]) for v in names]
    mate = [-1] * len(names)
    _kuhn(masks, mate, mate, range(len(names)))
    return frozenset(frozenset((names[i], names[j])) for i, j in enumerate(mate) if i < j)


def _validated_perfect(inst: BipartiteInstance, m_star: AbstractSet) -> frozenset:
    mset = frozenset(frozenset(e) for e in m_star)
    if not is_matching(mset) or not mset <= inst.graph:
        raise ValueError("m_star must be a matching inside the instance graph")
    if vertices(mset) != inst.offline | inst.online:
        raise ValueError("m_star must cover both parties entirely")
    return mset


def validated_star(inst: BipartiteInstance, m_star: AbstractSet) -> List[int]:
    """``graph._star`` on names: M* checked against ``inst.graph``, then
    each ranked vertex's partner as an arrival position."""
    mate = _mate_map(_validated_perfect(inst, m_star))
    return [inst.arrival.index(mate[v]) for v in inst.ranking]


def make_perfect_matching(g: AbstractSet, m: AbstractSet) -> frozenset:
    """The subgraph of g left after deleting every vertex m does not cover.

    Deleting a vertex outside m takes no edge of m with it, so the result
    contains all of m, and m is perfect with respect to it.
    """
    mset = frozenset(m)
    if not is_matching(mset):
        raise ValueError("m must be a matching")
    gg = frozenset(g)
    if not mset <= gg:
        raise ValueError("m must be a subset of g")
    return remove_vertices(gg, vertices(gg) - vertices(mset))


def all_matchings(g: AbstractSet) -> Iterator[frozenset]:
    """Every matching contained in g, the empty one included.

    Deterministic order; the number of results is the number of matchings,
    not the number of edge subsets, so this stays cheap on small graphs.
    """
    es: List[Edge] = sorted(g, key=sorted)

    def rec(i: int, used: frozenset, acc: Tuple[Edge, ...]) -> Iterator[frozenset]:
        if i == len(es):
            yield frozenset(acc)
            return
        yield from rec(i + 1, used, acc)
        e = es[i]
        if not (e & used):
            yield from rec(i + 1, used | e, acc + (e,))

    yield from rec(0, frozenset(), ())


def _check_t(t: int, n: int) -> None:
    if not 1 <= t <= n:
        raise ValueError(f"rank t={t} out of range 1..{n}")


def _ensemble(inst: BipartiteInstance):
    """Matcher outcomes for every ranking of the offline party.

    Maps each permutation of ranking positions (``inst.reach`` numbering;
    the identity is ``inst.ranking``) to a pair (set of matched ranks,
    partner rank per arrival), each row one ``engine._greedy`` run.  The
    per-t functions read it, as the test oracle of the dynamic program in
    ``probability._layers``; the CLI, the suites and ``lemma3_chain`` never
    build it.
    """
    reach = inst.reach
    arrivals = len(inst.arrival)
    runs: Dict[tuple, tuple] = {}
    for perm in permutations(range(len(reach))):
        prs = tuple(_greedy(reach, perm, arrivals))
        runs[perm] = (frozenset(r for r in prs if r >= 0), prs)
    return runs


def rank_matched_prob(inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Probability that the vertex at rank t ends up matched."""
    _check_cap(inst, cap)
    _check_t(t, len(inst.ranking))
    runs = _ensemble(inst)
    hits = sum(1 for matched, _ in runs.values() if t - 1 in matched)
    return Fraction(hits, len(runs))


def rank_matched_prob_moved(
    inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP
) -> Fraction:
    """Same event, dual sample space: an independent vertex forced to rank t.

    Draw a ranking and a vertex independently and uniformly, move the vertex
    to rank t, and ask whether it ends up matched.  Each moved ranking is
    hit exactly n times, so this equals ``rank_matched_prob(t)``; computing
    it over the pair space keeps the two routes independent.
    """
    _check_cap(inst, cap)
    n = len(inst.ranking)
    _check_t(t, n)
    runs = _ensemble(inst)
    i = t - 1
    hits = sum(i in runs[_move_id(perm, x, i)][0] for perm in runs for x in range(n))
    return Fraction(hits, len(runs) * n)


def matched_before_prob(
    inst: BipartiteInstance, m_star: AbstractSet, t: int, cap: int = DEFAULT_CAP
) -> Fraction:
    """Probability the designated partner of a random vertex matches rank <= t.

    Draw a ranking and a vertex v independently and uniformly; the event is
    that u = m_star(v) is matched and its mate sits at rank t or better.
    ``m_star`` must be a perfect matching of the instance graph.
    """
    _check_cap(inst, cap)
    n = len(inst.ranking)
    _check_t(t, n)
    upos = _star(inst, m_star)
    runs = _ensemble(inst)
    hits = sum(0 <= prs[j] <= t - 1 for _, prs in runs.values() for j in upos)
    return Fraction(hits, len(runs) * n)


def expected_matched_before_count(
    inst: BipartiteInstance, t: int, cap: int = DEFAULT_CAP
) -> ExactReport:
    """Expected number of arrivals matched to rank t or better."""
    _check_cap(inst, cap)
    _check_t(t, len(inst.ranking))
    runs = _ensemble(inst)
    total = sum(
        sum(1 for r in prs if 0 <= r <= t - 1) for _, prs in runs.values()
    )
    return ExactReport(
        instance_id=fingerprint(inst),
        quantity="expected_count_matched_within_rank",
        params=(("t", t),),
        value=Fraction(total, len(runs)),
        sample_space=len(runs),
    )


def check_lemma3(inst: BipartiteInstance, cap: int = DEFAULT_CAP) -> Dict[int, bool]:
    """Per-rank verdicts of the survival inequality, all exact.

    For each t: the probability of the rank-t vertex being unmatched is at
    most the average of the first t rank probabilities.  Requires the
    instance to admit a perfect matching.  A view of ``lemma3_chain``.
    """
    return {link.t: link.inequality for link in lemma3_chain(inst, cap=cap)}


def gen_gamma_family(n: int) -> Iterator[Tuple[frozenset, Tuple[Permutation, ...]]]:
    """The hard family at size n, named: each graph of ``_gamma_masks(n)`` as
    edges o_k - i_l, with every arrival order of its active online vertices."""
    for rows, active in _gamma_masks(n):
        pairs = [(k, l) for k, m in enumerate(rows) for l in active if m >> l & 1]
        g = frozenset(edge(f"o{k}", f"i{l}") for k, l in pairs)
        yield g, tuple(Permutation(p) for p in permutations(f"i{l}" for l in active))


def _gamma_ranking(g: frozenset) -> Permutation:
    """The offline vertices o* of a hard-family graph, by integer suffix."""
    offline = (v for v in vertices(g) if v.startswith("o"))
    return Permutation(sorted(offline, key=lambda s: int(s[1:])))
