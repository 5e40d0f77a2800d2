"""The rank-greedy online bipartite matcher and its declarative mirror.

One party of the graph (the offline side) is known upfront and carries a
ranking: a permutation that says which vertex to prefer.  The other party
arrives one vertex at a time in its own order.  Each arrival is matched to
its best-ranked still-free neighbor, or left unmatched forever.

``online_match`` is the operational definition, a literal fold of ``step``
over the arrival order.  ``is_ranking_matching`` is the declarative one: a
predicate on (graph, matching, orders) that the fold's output satisfies and,
on any given instance, exactly one matching satisfies.  Having both lets the
tests drive each against the other.  ``_ranking_holds`` decides it on an
index, for a partner array, which ``is_ranking_matching`` builds from
(graph, orders).

Every other caller runs ``_greedy``, the party-swapped greedy (offline
vertices in ranking order take their earliest-arriving free neighbor), on
``BipartiteInstance.reach``; ``rank_match`` names its matching for
``check_rank_move`` and two suites.  Each instance derives ``reach`` once,
as it validates its edges or as a generator draws it.  The predicate is
symmetric in the two orders and has exactly one solution, so this is the
fold's matching.  ``_max_matching`` augments that matching on the same
index with ``graph._augment``, the package's one augmenting-path search, and
returns its partner array; ``_max_matching_size`` counts it for callers that
need only the size of a maximum matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Sequence

from .graph import (
    Vertex,
    _augment,
    _mate_map,
    is_bipartite,
    is_matching,
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
        self.index(v)  # KeyError for a non-member, before any index check
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


@dataclass(frozen=True, init=False, repr=False)
class BipartiteInstance:
    """A bipartite graph together with the two orders the matcher consumes.

    ``ranking`` orders the offline party (best-preferred first) and
    ``arrival`` orders the online party.  Every edge must join the two
    parties; a declared vertex without edges is fine.  The loop that checks
    this also builds ``reach``, the integer index every matcher reads: bit j
    of ``reach[r]`` is set when the offline vertex at rank r is adjacent to
    the j-th arrival.  The parser, generators and ``without_vertices`` write
    ``reach`` directly (``_indexed``); ``graph`` is read off it on first read.
    Equality, hashing and ``repr`` go by (graph, ranking, arrival).
    """

    graph: frozenset  # the cached_property below
    ranking: Permutation
    arrival: Permutation
    reach: tuple = field(compare=False)

    def __init__(self, graph: Iterable, ranking: Permutation, arrival: Permutation):
        graph = frozenset(frozenset(e) for e in graph)
        rank, pos = ranking._pos, arrival._pos
        overlap = ranking.members & arrival.members
        if overlap:
            raise ValueError(f"vertices declared in both parties: {sorted(overlap)}")
        reach = [0] * len(rank)
        for e in graph:
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
        self._init(ranking, arrival, tuple(reach), graph=graph)

    @classmethod
    def _indexed(cls, ranking, arrival, reach: tuple) -> "BipartiteInstance":
        """The instance of an index its caller has checked against the two orders."""
        return cls.__new__(cls)._init(ranking, arrival, reach)

    def _init(self, ranking, arrival, reach, **cached) -> "BipartiteInstance":
        vars(self).update(cached, ranking=ranking, arrival=arrival, reach=reach)
        return self

    @cached_property
    def graph(self) -> frozenset:
        """The edge set, read off ``reach`` on first access."""
        arrivals, edges = self.arrival.order, []
        for v, mask in zip(self.ranking.order, self.reach):
            while mask:
                edges.append(frozenset((arrivals[(mask & -mask).bit_length() - 1], v)))
                mask &= mask - 1
        return frozenset(edges)

    def __repr__(self) -> str:
        edges = sorted(map(sorted, self.graph))  # a frozenset's order varies
        return f"BipartiteInstance({edges!r}, {self.ranking!r}, {self.arrival!r})"

    @property
    def offline(self) -> frozenset:
        return self.ranking.members

    @property
    def online(self) -> frozenset:
        return self.arrival.members

    def without_vertices(self, xs) -> "BipartiteInstance":
        """Same orders, with the vertices xs cut out of ``reach``; no edge set built."""
        xs = frozenset(xs)
        kept = sum(1 << j for j, u in enumerate(self.arrival) if u not in xs)
        reach = (0 if v in xs else m & kept for v, m in zip(self.ranking, self.reach))
        return BipartiteInstance._indexed(self.ranking, self.arrival, tuple(reach))


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


def _max_matching(reach: Sequence[int], arrivals: int) -> List[int]:
    """A maximum matching of the index, as a partner array like ``_greedy``'s.

    Kuhn's method (1955) from ``_greedy``'s maximal matching: ``graph._augment``
    from each offline id it leaves free, in id order.  What a failed search
    reached is skipped until the next augmentation, and an id with no
    augmenting path never gains one later.
    """
    prs = _greedy(reach, range(len(reach)), arrivals)
    ids, seen = [-1] * len(reach), 0  # the ids' partners, which nothing here reads
    for s in sorted(set(range(len(reach))).difference(prs)):
        seen = max(0, _augment(s, reach, prs, ids, seen))
    return prs


def _max_matching_size(reach: Sequence[int], arrivals: int) -> int:
    """The size of a maximum matching of the index, with no edge set built."""
    return arrivals - _max_matching(reach, arrivals).count(-1)


def _move_id(order: Iterable, x, i: int) -> tuple:
    """``order``, which holds x, with x moved to index i and the rest kept in order."""
    rest = [y for y in order if y != x]
    if not 0 <= i <= len(rest):
        raise IndexError(f"target index {i} out of range 0..{len(rest)}")
    rest.insert(i, x)
    return tuple(rest)


def _named(inst: BipartiteInstance, prs: Sequence[int]) -> frozenset:
    """The matching of a partner array over ``inst``'s arrivals, as name edges."""
    ranked = inst.ranking.order
    return frozenset(frozenset((u, ranked[r])) for u, r in zip(inst.arrival, prs) if r >= 0)


def rank_match(inst: BipartiteInstance) -> frozenset:
    """The matching of ``online_match``: ``_greedy`` on ``inst.reach`` in rank order."""
    return _named(inst, _greedy(inst.reach, range(len(inst.reach)), len(inst.arrival)))


def _transpose(masks: Sequence[int], n: int) -> List[int]:
    """The n masks of the other party: bit i of entry k is bit k of ``masks[i]``."""
    out = [0] * n
    for i, mask in enumerate(masks):
        while mask:
            out[(mask & -mask).bit_length() - 1] |= 1 << i
            mask &= mask - 1
    return out


def _inverse(prs: Sequence[int], n: int) -> List[int]:
    """The other party's partner array, of length n, for a matching's ``prs``."""
    inv = [-1] * n
    for j, r in enumerate(prs):
        if r >= 0:
            inv[r] = j
    return inv


def _ranking_holds(prs: Sequence[int], cols: Sequence[int], rows: Sequence[int]) -> bool:
    """``is_ranking_matching`` on an index, for the partner array ``prs``.

    ``prs[j]`` is chooser j's partner position or -1, ``cols[j]`` its neighbour
    mask, and ``rows`` the transpose; the parties are disjoint by construction.
    The swapped orientation is this on ``(_inverse(prs, len(rows)), rows, cols)``.
    """
    taken = 0  # the positions held by the choosers before j
    for j, r in enumerate(prs):
        if r >= 0:  # an edge, not taken twice, no free neighbour ranked before it
            bit = 1 << r
            if taken & bit or not cols[j] & bit or cols[j] & (bit - 1) & ~taken:
                return False
            taken |= bit
    held = 0  # the choosers held by the chosen positions before r
    for r, j in enumerate(_inverse(prs, len(rows))):
        if j >= 0:  # the chosen side's first choice
            if rows[r] & ((1 << j) - 1) & ~held:
                return False
            held |= 1 << j
    return not any(c & ~taken for c, r in zip(cols, prs) if r < 0)  # maximal


def _matchings(cols: Sequence[int]) -> List[tuple]:
    """Every matching of the index as a partner tuple, in a fixed order."""
    out = [((), 0)]  # (partners so far, the positions they hold)
    for c in cols:
        opts = [(-1, 0)] + [(r, 1 << r) for r in range(c.bit_length()) if c >> r & 1]
        out = [(prs + (r,), used | bit) for prs, used in out for r, bit in opts if not used & bit]
    return [prs for prs, _ in out]


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
