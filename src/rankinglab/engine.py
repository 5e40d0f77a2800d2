"""The rank-greedy online bipartite matcher and its declarative mirror.

One party of the graph (the offline side) is known upfront and carries a
ranking: a permutation that says which vertex to prefer.  The other party
arrives one vertex at a time in its own order.  Each arrival is matched to
its best-ranked still-free neighbor, or left unmatched forever.

``online_match`` is the operational definition, a literal fold of ``step``
over the arrival order.  ``is_ranking_matching`` is the declarative one: a
predicate on (graph, matching, orders) that the fold's output satisfies and,
on any given instance, exactly one matching satisfies.  Having both lets the
tests drive each against the other; both stay literal oracles.

Every other caller runs ``rank_match``: ``_greedy``, the party-swapped greedy
(offline vertices in ranking order take their earliest-arriving free
neighbor), on the arrival bitmasks ``BipartiteInstance.reach`` that each
instance derives once, in the loop that validates its edges.  The predicate
is symmetric in the two orders and has exactly one solution, so this is the
fold's matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence

from .graph import (
    Edge,
    Vertex,
    is_bipartite,
    is_matching,
    is_maximal_matching,
    partner,
    remove_vertices,
    vertices,
)


class Permutation:
    """An ordered sequence of distinct vertices with O(1) rank lookup."""

    __slots__ = ("_order", "_pos", "_members")

    def __init__(self, order: Iterable[Vertex]):
        self._order = tuple(order)
        self._pos = {}
        for i, v in enumerate(self._order):
            if v in self._pos:
                raise ValueError(f"duplicate member {v!r}")
            self._pos[v] = i
        self._members = frozenset(self._pos)

    @property
    def order(self) -> tuple:
        return self._order

    @property
    def members(self) -> frozenset:
        return self._members

    def index(self, v: Vertex) -> int:
        """The 0-based position of v; raises KeyError for non-members."""
        try:
            return self._pos[v]
        except KeyError:
            raise KeyError(f"{v!r} is not a member of this permutation") from None

    def move_to(self, v: Vertex, i: int) -> "Permutation":
        """A new permutation with v at index i, the rest in order (``_move_id``)."""
        if v not in self._pos:
            raise KeyError(f"{v!r} is not a member of this permutation")
        if not 0 <= i < len(self._order):
            raise IndexError(f"target index {i} out of range 0..{len(self._order) - 1}")
        return Permutation(_move_id(self._order, v, i))

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._order)

    def __contains__(self, v: object) -> bool:
        return v in self._pos

    def __getitem__(self, i: int) -> Vertex:
        return self._order[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._order == other._order

    def __hash__(self) -> int:
        return hash(self._order)

    def __repr__(self) -> str:
        return f"Permutation({list(self._order)!r})"


@dataclass(frozen=True)
class BipartiteInstance:
    """A bipartite graph together with the two orders the matcher consumes.

    ``ranking`` orders the offline party (best-preferred first) and
    ``arrival`` orders the online party.  Every edge must join the two
    parties; a declared vertex without edges is fine.  The loop that checks
    this also builds ``reach``, the integer index every matcher reads: bit j
    of ``reach[r]`` is set when the offline vertex at rank r is adjacent to
    the j-th arrival.
    """

    graph: frozenset
    ranking: Permutation
    arrival: Permutation
    reach: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "graph", frozenset(frozenset(e) for e in self.graph))
        rank, pos = self.ranking._pos, self.arrival._pos
        overlap = self.ranking.members & self.arrival.members
        if overlap:
            raise ValueError(f"vertices declared in both parties: {sorted(overlap)}")
        reach = [0] * len(rank)
        for e in self.graph:
            if len(e) != 2:
                raise ValueError(f"not a two-vertex edge: {sorted(e)}")
            a, b = e
            if a in pos:
                a, b = b, a
            if a in rank and b in pos:
                reach[rank[a]] |= 1 << pos[b]
            else:
                a, b = sorted(e)
                raise ValueError(f"edge {a} -- {b} does not join the two parties")
        object.__setattr__(self, "reach", tuple(reach))

    @property
    def offline(self) -> frozenset:
        return self.ranking.members

    @property
    def online(self) -> frozenset:
        return self.arrival.members

    def without_vertices(self, xs) -> "BipartiteInstance":
        """Same orders, graph restricted away from the vertices xs."""
        return BipartiteInstance(
            remove_vertices(self.graph, frozenset(xs)), self.ranking, self.arrival
        )


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


def _greedy(reach: Sequence[int], order: Iterable[int], arrivals: int) -> List[int]:
    """The party-swapped greedy on an index: the partner position of each arrival.

    Offline ids take, in ``order``, their earliest-arriving free neighbor.
    Entry j is the position in ``order`` of the j-th arrival's partner, or
    -1 when that arrival stays unmatched.
    """
    free = (1 << arrivals) - 1
    prs = [-1] * arrivals
    for r, x in enumerate(order):
        a = reach[x] & free
        if a:
            low = a & -a
            free ^= low
            prs[low.bit_length() - 1] = r
    return prs


def _move_id(order: Iterable, x, i: int) -> tuple:
    """``order`` with x moved to index i, the rest kept in order; i is not checked."""
    rest = [y for y in order if y != x]
    rest.insert(i, x)
    return tuple(rest)


def rank_match(inst: BipartiteInstance) -> frozenset:
    """The matching of ``online_match``: ``_greedy`` on ``inst.reach`` in rank order."""
    ranked = inst.ranking.order
    prs = _greedy(inst.reach, range(len(ranked)), len(inst.arrival))
    return frozenset(
        frozenset((u, ranked[r])) for u, r in zip(inst.arrival, prs) if r >= 0
    )


def _first_choice_clause(
    g: frozenset, m: frozenset, chooser: Permutation, chosen: Permutation
) -> bool:
    """No matched chooser skips an earlier-ranked neighbor without cause.

    For every matched pair {u, v} with u on the chooser side: any neighbor
    v2 of u ranked before v must itself be matched to some chooser earlier
    than u.  Quantifiers are unrolled literally; instances are desk-sized.
    """
    for e in m:
        side = e & chooser.members
        if len(side) != 1:
            return False
        (u,) = side
        (v,) = e - side
        for v2 in chosen:
            if chosen.index(v2) >= chosen.index(v):
                break
            if frozenset((u, v2)) not in g:
                continue
            u2 = partner(m, v2)
            if u2 is None or u2 not in chooser or chooser.index(u2) >= chooser.index(u):
                return False
    return True


def is_ranking_matching(
    g: frozenset, m: frozenset, arrival: Permutation, ranking: Permutation
) -> bool:
    """Declarative test that m is the rank-greedy outcome on (g, orders).

    Five conjuncts: m is a matching inside g; g is bipartite between the two
    disjoint parties; m is maximal in g; no arriving vertex skipped a free
    better-ranked neighbor; and the same first-choice condition with the
    parties' roles swapped.  The conjunction is symmetric under exchanging
    the two orders.
    """
    gset = frozenset(frozenset(e) for e in g)
    mset = frozenset(frozenset(e) for e in m)
    if not (mset <= gset and is_matching(mset)):
        return False
    if arrival.members & ranking.members:
        return False
    if not is_bipartite(gset, arrival.members, ranking.members):
        return False
    if not is_maximal_matching(gset, mset):
        return False
    if not _first_choice_clause(gset, mset, arrival, ranking):
        return False
    return _first_choice_clause(gset, mset, ranking, arrival)
