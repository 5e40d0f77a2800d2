"""The rank-greedy online bipartite matcher on an integer index.

One party of the graph (the offline side) is known upfront and carries a
ranking: a permutation that says which vertex to prefer.  The other party
arrives one vertex at a time in its own order.  Each arrival is matched to
its best-ranked still-free neighbor, or left unmatched forever.

Every caller runs ``_greedy``, the party-swapped greedy (offline vertices in
ranking order take their earliest-arriving free neighbor), on
``BipartiteInstance.reach``, its masks in rank order; ``rank_match`` names
its matching.  Each instance derives ``reach`` once, as it validates its
edges or as a generator draws it.  The declarative predicate is symmetric in
the two orders and has exactly one solution, so this is the matching of the
paper's fold.  ``_ranking_holds`` decides that predicate on an index, for a
partner array.  The fold (``online_match`` over ``step``) and the predicate's
name form (``is_ranking_matching``) are literal test oracles in
``tests/oracles.py``, which hold ``rank_match`` and ``_ranking_holds`` to
them.  The maximum matching and M*, on the same index, are in ``graph``,
which builds on this module; this module imports nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Sequence

Vertex = str


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
    this, in the caller's order, names the first bad edge and builds
    ``reach``, the integer index every matcher reads: bit j of ``reach[r]``
    is set when the offline vertex at rank r is adjacent to the j-th
    arrival.  The parser, generators and ``without_vertices`` write
    ``reach`` directly (``_indexed``); ``graph`` is read off it on first read.
    Equality and hashing go by (ranking, arrival, reach), which fix the edge
    set with no edge set built; ``repr`` shows the edge set.
    """

    ranking: Permutation
    arrival: Permutation
    reach: tuple

    def __init__(self, graph: Iterable, ranking: Permutation, arrival: Permutation):
        rank, pos = ranking._pos, arrival._pos
        overlap = ranking.members & arrival.members
        if overlap:
            raise ValueError(f"vertices declared in both parties: {sorted(overlap)}")
        reach = [0] * len(rank)
        for e in map(frozenset, graph):  # a repeated edge ORs the same bit
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
        self._init(ranking, arrival, tuple(reach))

    @classmethod
    def _indexed(cls, ranking, arrival, reach: tuple) -> "BipartiteInstance":
        """The instance of an index its caller has checked against the two orders."""
        return cls.__new__(cls)._init(ranking, arrival, reach)

    def _init(self, ranking, arrival, reach) -> "BipartiteInstance":
        vars(self).update(ranking=ranking, arrival=arrival, reach=reach)
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


def _greedy(reach: Sequence[int], arrivals: int) -> List[int]:
    """The party-swapped greedy on an index: the partner position of each arrival.

    A ranking is the order of the masks: offline ids take, in ``reach``'s
    order, their earliest-arriving free neighbor.  Entry j is the position
    in ``reach`` of the j-th arrival's partner, or -1 when it stays unmatched.
    """
    free = (1 << arrivals) - 1
    prs = [-1] * arrivals
    for r, mask in enumerate(reach):
        a = mask & free
        if a:
            low = a & -a
            free ^= low
            prs[low.bit_length() - 1] = r
    return prs


def _move_id(order: Iterable, x, i: int) -> tuple:
    """``order``, which holds x, with x moved to index i and the rest kept in order."""
    rest = [y for y in order if y != x]
    if not 0 <= i <= len(rest):
        raise IndexError(f"target index {i} out of range 0..{len(rest)}")
    rest.insert(i, x)
    return tuple(rest)


def rank_match(inst: BipartiteInstance) -> frozenset:
    """The rank-greedy matching as name edges: ``_greedy`` on ``inst.reach`` in rank order."""
    ranked = inst.ranking.order
    prs = _greedy(inst.reach, len(inst.arrival))
    return frozenset(frozenset((u, ranked[r])) for u, r in zip(inst.arrival, prs) if r >= 0)


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
    """The ranking-matching predicate on an index, for the partner array ``prs``.

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

